/**
 * @file
 * The system-state prediction model (paper Fig. 11a, Table I): two
 * stacked LSTM layers over the binned 120 s history window, followed by
 * the non-linear head, predicting the mean of every monitored event
 * over the next 120 s.
 */

#ifndef ADRIAS_MODELS_SYSTEM_STATE_HH
#define ADRIAS_MODELS_SYSTEM_STATE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "common/rng.hh"
#include "ml/lstm.hh"
#include "ml/scaler.hh"
#include "ml/sequential.hh"
#include "models/config.hh"
#include "models/encoding_memo.hh"
#include "scenario/dataset.hh"

namespace adrias::models
{

/** Per-event and aggregate test metrics (what Table I reports). */
struct SystemStateEvaluation
{
    /** R² per monitored event. */
    std::vector<double> r2PerEvent;

    /** Average R² across events. */
    double r2Average = 0.0;

    /** Flattened actual/predicted pairs for residual plots (Fig. 12). */
    std::vector<double> actual;
    std::vector<double> predicted;
};

/** Forecasts the mean of each performance event over the horizon. */
class SystemStateModel
{
  public:
    explicit SystemStateModel(ModelConfig config = {});

    /**
     * Fit scalers and train on the given samples.
     *
     * @return final-epoch training loss (scaled units).
     */
    double train(const std::vector<scenario::SystemStateSample> &samples);

    /**
     * Predict the horizon mean for one history window: a one-row
     * predictBatch() call, so the model has a single forward.
     *
     * @param history binned window (kWindowBins steps of 1 x events).
     * @return (1 x events) prediction in counter units.
     */
    ml::Matrix predict(const std::vector<ml::Matrix> &history) const;

    /**
     * Fused forward over B stacked histories; each distinct history is
     * scaled and forwarded once, and one whose contents an earlier
     * call forecast is not forwarded at all: its Ŝ row comes from the
     * state memo (DESIGN.md §15.2).  Rows are independent through the
     * whole network, so row i of the result is bitwise identical to a
     * one-row call on histories[i] on a cold model.
     *
     * Not synchronized: like the LSTM workspaces (DESIGN.md §11.2),
     * the memo assumes one caller at a time per model.
     *
     * @param histories one binned window per batch row (borrowed; all
     *        the same length).
     * @return one (1 x events) prediction per row, input order.
     */
    std::vector<ml::Matrix>
    predictBatch(const std::vector<const std::vector<ml::Matrix> *>
                     &histories) const;

    /**
     * Evaluate R² per event on held-out samples, predicting through
     * predictBatch() over chunks of training-batch-size samples.
     */
    SystemStateEvaluation
    evaluate(const std::vector<scenario::SystemStateSample> &samples) const;

    /** @return true after train() has run. */
    bool trained() const { return isTrained; }

    /** Ŝ forecasts the state memo holds right now. */
    std::size_t memoizedStates() const { return stateMemo.size(); }

    /**
     * All trainable parameters (const like predict(): the layers sit
     * behind pointers).  Writing weights through these pointers
     * bypasses the Ŝ memo; only train() and restoreState() invalidate
     * it.
     */
    std::vector<ml::Param *> params() const;

    /**
     * Persist the saveState() payload so a serving process can reload
     * the model without retraining.  The file is replaced atomically
     * (temp-write + rename): a crash mid-save leaves either the old
     * file or the new one, never a torn mix.
     */
    void save(const std::string &path) const;

    /**
     * restoreState() over a file written by save().  Io when the file
     * cannot be read; TrailingData when bytes follow the payload (the
     * model is then already restored).
     */
    [[nodiscard]] Result<void> load(const std::string &path);

    /**
     * Serialize the trained model: weights, normalization state, both
     * scalers and the training RNG's stream position.
     *
     * @pre trained().
     */
    void saveState(io::BinaryWriter &out) const;

    /**
     * Restore a saveState() payload.  The topology (ModelConfig) must
     * match the constructor arguments: a mismatch is Geometry.
     * Everything is decoded before anything is committed, so on error
     * the model is unchanged; on success it is trained and its Ŝ memo
     * is cold.
     */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    ModelConfig config ADRIAS_NOT_CHECKPOINTED(
        "constructor input: a topology mismatch fails restoreState()'s "
        "shape checks");
    mutable Rng rng;
    std::unique_ptr<ml::Lstm> lstm1;
    std::unique_ptr<ml::Lstm> lstm2;
    std::unique_ptr<ml::Sequential> head;
    ml::StandardScaler inputScaler;
    ml::StandardScaler targetScaler;
    bool isTrained = false;

    /**
     * predictBatch()'s inverse-scaled Ŝ row per history window, keyed
     * by the raw window.  Cleared by train() and restoreState().
     */
    mutable EncodingMemo stateMemo ADRIAS_NOT_CHECKPOINTED(
        "derived state: a restored model re-forecasts on first use");

    /**
     * Batched forward pass to the head output.
     *
     * @param batch time-major scaled sequence of (B x events).
     * @return (B x events) scaled prediction.
     */
    ml::Matrix forwardBatch(const std::vector<ml::Matrix> &batch) const;

    /** Backward from head-output gradient through both LSTMs. */
    void backwardBatch(const ml::Matrix &grad_output,
                       std::size_t batch_rows) const;
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_SYSTEM_STATE_HH
