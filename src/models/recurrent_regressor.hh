/**
 * @file
 * The skeleton both prediction models share (paper Fig. 11): 2-layer
 * LSTM encoders over the binned counter windows feed, with any extra
 * columns, the non-linear head.  SystemStateModel is one encoder and 8
 * outputs; PerformanceModel two encoders (S and k), the mode and Ŝ
 * columns and 1 output.  RecurrentRegressor owns the layers, both
 * scalers and the training RNG, and the procedures over them; a model
 * keeps its batch assembly, memos, target encoding and payload tag.
 */

#ifndef ADRIAS_MODELS_RECURRENT_REGRESSOR_HH
#define ADRIAS_MODELS_RECURRENT_REGRESSOR_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "common/rng.hh"
#include "ml/lstm.hh"
#include "ml/scaler.hh"
#include "ml/sequential.hh"
#include "models/config.hh"

namespace adrias::models
{

/** Encoders, head, scalers and training RNG of one prediction model. */
class RecurrentRegressor
{
  public:
    /** A scaled training batch: per-encoder sequences, head columns. */
    struct Batch
    {
        std::vector<std::vector<ml::Matrix>> sequences;
        ml::Matrix columns; ///< head inputs after the encodings, or none
        ml::Matrix target;
    };

    /** Builds the batch of the given sample indices, in that order. */
    using Assemble = std::function<Batch(std::span<const std::size_t>)>;

    /** A decoded saveState() payload, not yet committed. */
    struct Payload
    {
        std::vector<ml::Matrix> params;
        std::vector<ml::Matrix> state;
        ml::StandardScaler counters;
        ml::StandardScaler targets;
        Rng rng;
    };

    /**
     * Draws from an Rng seeded with config.seed each encoder's two
     * layers in turn, then the head over encoders * hidden + columns.
     */
    RecurrentRegressor(const ModelConfig &config, std::size_t encoders,
                       std::size_t columns, std::size_t outputs);

    const ModelConfig &config() const { return knobs; }
    const ml::StandardScaler &counterScaler() const { return counters; }
    const ml::StandardScaler &targetScaler() const { return targets; }
    bool trained() const { return isTrained; }

    /** Every encoder's parameters in order, then the head's. */
    std::vector<ml::Param *> params() const;

    /** Fit the counter scaler on the sequences, the target scaler. */
    void
    fitScalers(const std::vector<std::vector<ml::Matrix>> &sequences,
               const ml::Matrix &target_rows)
    {
        counters.fitSequences(sequences);
        targets.fit(target_rows);
    }

    /**
     * Train with a fresh Adam, one shuffle per epoch, then give a
     * BatchNorm head population statistics from one pass over the
     * samples in order.  @return final-epoch mean loss (scaled).
     */
    double fit(std::size_t samples, std::size_t epochs,
               double learning_rate, const Assemble &assemble);

    /** Encoder `encoder`'s (B x hidden) encoding, scaled and stacked. */
    ml::Matrix
    encode(std::size_t encoder,
           const std::vector<const std::vector<ml::Matrix> *> &sequences)
        const;

    /** Replace the head input `activation` with its scaled prediction. */
    void inferHead(ml::Matrix &activation) const;

    /** `tag`, weights, norm state, scalers, RNG. @pre trained(). */
    void saveState(io::BinaryWriter &out, std::string_view tag) const;

    /**
     * Decode a saveState() payload without touching this regressor:
     * BadHeader unless it opens with `tag`, Geometry when a shape
     * disagrees with this topology, Truncated when it ends early.
     */
    [[nodiscard]] Result<Payload> decodeState(io::BinaryReader &in,
                                              std::string_view tag) const;

    /**
     * Commit a decodeState() result of this topology.  The regressor is
     * then trained and in inference mode.
     */
    void restoreState(Payload &&payload);

    /** saveState() into `path`, replaced atomically (temp + rename). */
    void save(const std::string &path, std::string_view tag) const;

    /** decodeState() over a save() file: also Io and TrailingData. */
    [[nodiscard]] Result<Payload> decodeFile(const std::string &path,
                                             std::string_view tag) const;

  private:
    /** Two stacked LSTMs; the encoding is layer 2's last hidden state. */
    struct Encoder
    {
        ml::Lstm layer1;
        ml::Lstm layer2;

        ml::Matrix forward(const std::vector<ml::Matrix> &batch);

        /**
         * BPTT from the encoding's gradient, columns [col, col + H) of
         * `grad`.  Layer 1's input gradient is not computed.
         */
        void backward(const ml::Matrix &grad, std::size_t col);
    };

    const ModelConfig knobs ADRIAS_NOT_CHECKPOINTED(
        "constructor input: decodeState()'s shape checks reject another "
        "topology, the performance model's payload tag another "
        "logTarget");
    const std::size_t outputs ADRIAS_NOT_CHECKPOINTED(
        "constructor input: decodeState() checks the target scaler's "
        "width against it");

    /** Behind a pointer: the head's Dropout layers keep its address. */
    std::unique_ptr<Rng> rng;
    mutable std::vector<Encoder> encoders;
    std::unique_ptr<ml::Sequential> head;
    ml::StandardScaler counters; ///< every sequence's, and Ŝ's
    ml::StandardScaler targets;
    bool isTrained = false;

    ml::Matrix forward(const Batch &batch);
    void setInference(bool on); ///< on: eval statistics too; off: train
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_RECURRENT_REGRESSOR_HH
