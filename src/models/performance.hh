/**
 * @file
 * The application performance prediction model (paper Fig. 11b):
 * separate 2-layer LSTM encoders for the system history S and the
 * application signature k, concatenated with the deployment mode and
 * the (predicted or actual) future system state Ŝ, followed by the
 * non-linear head producing one scalar — execution time for the
 * universal BE model, p99 latency for the LC model.
 */

#ifndef ADRIAS_MODELS_PERFORMANCE_HH
#define ADRIAS_MODELS_PERFORMANCE_HH

#include <map>
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
#include "models/system_state.hh"
#include "scenario/dataset.hh"

namespace adrias::models
{

/**
 * What is fed as the future-state vector Ŝ (the {train, test} ablation
 * of paper Fig. 13b).
 */
enum class FutureKind
{
    None,         ///< no future input at all
    ActualWindow, ///< actual mean counters over the 120 s after arrival
    ActualExec,   ///< actual mean counters over the full execution
    Predicted,    ///< propagated from the system-state model
};

/** @return short label used in bench tables ("None", "120", ...). */
std::string toString(FutureKind kind);

/** Test metrics for a performance model (Figs. 13-14). */
struct PerformanceEvaluation
{
    double r2 = 0.0;
    double mae = 0.0;
    double r2Local = 0.0;
    double r2Remote = 0.0;

    /** MAE per application name. */
    std::map<std::string, double> maePerApp;

    std::vector<double> actual;
    std::vector<double> predicted;
};

/** Universal per-class performance predictor. */
class PerformanceModel
{
  public:
    /**
     * @param future which Ŝ variant this model consumes.
     * @param config topology/training knobs.
     */
    explicit PerformanceModel(FutureKind future, ModelConfig config = {});

    /**
     * Train on performance samples.
     *
     * @param samples training split.
     * @param system required when future == Predicted (Ŝ is propagated
     *        through the trained system-state model).
     * @return final-epoch training loss.
     */
    double train(const std::vector<scenario::PerformanceSample> &samples,
                 const SystemStateModel *system = nullptr);

    /**
     * Continue training on newly collected samples without refitting
     * the scalers (continual learning, the operational consequence of
     * the paper's Fig. 15: unseen apps need signature collection and
     * retraining).  Uses a reduced learning rate to avoid drift.
     *
     * @pre train() has run.
     * @return final-epoch loss on the new samples.
     */
    double
    fineTune(const std::vector<scenario::PerformanceSample> &samples,
             const SystemStateModel *system, std::size_t epochs);

    /**
     * Predict the performance metric for a hypothetical deployment: a
     * one-row predictBatch() call, so the model has a single forward.
     *
     * @param history binned Watcher window S.
     * @param signature application signature k.
     * @param mode deployment mode under consideration.
     * @param future Ŝ vector (1 x events); pass an empty Matrix for
     *        FutureKind::None models.
     * @return predicted execution time (s) or p99 (ms).
     */
    double predict(const std::vector<ml::Matrix> &history,
                   const std::vector<ml::Matrix> &signature,
                   MemoryMode mode, const ml::Matrix &future) const;

    /** One row of a predictBatch() call (all pointers borrowed). */
    struct Query
    {
        const std::vector<ml::Matrix> *history = nullptr;
        const std::vector<ml::Matrix> *signature = nullptr;
        MemoryMode mode = MemoryMode::Local;

        /** Ŝ vector; nullptr allowed for FutureKind::None models. */
        const ml::Matrix *future = nullptr;
    };

    /**
     * Fused forward over B stacked queries.  Each distinct history and
     * signature is encoded once, and one whose contents an earlier
     * call encoded is not encoded at all: its row comes from the
     * history or signature memo (DESIGN.md §15.2).  Rows are
     * independent through the encoders and the head, so element i is
     * bitwise identical to a one-row call on query i on a cold model.
     *
     * Not synchronized: like the LSTM workspaces (DESIGN.md §11.2),
     * the memos assume one caller at a time per model.
     *
     * @return one prediction per query, input order.
     */
    std::vector<double>
    predictBatch(const std::vector<Query> &queries) const;

    /**
     * Evaluate on held-out samples (Ŝ resolved per this model's kind).
     * Predictions come from predictBatch() over chunks of
     * training-batch-size samples, bitwise equal to per-row calls.
     */
    PerformanceEvaluation
    evaluate(const std::vector<scenario::PerformanceSample> &samples,
             const SystemStateModel *system = nullptr) const;

    bool trained() const { return isTrained; }

    /** Signature encodings the signature memo holds right now. */
    std::size_t memoizedSignatures() const { return signatureMemo.size(); }

    /** History encodings the history memo holds right now. */
    std::size_t memoizedHistories() const { return historyMemo.size(); }

    /**
     * All trainable parameters (const like predict(): the layers sit
     * behind pointers).  Writing weights through these pointers
     * bypasses the signature and history memos (and the system-state
     * model's Ŝ memo, for a Predicted model's inputs); only train(),
     * fineTune() and restoreState() of the model that owns a memo
     * invalidate it.
     */
    std::vector<ml::Param *> params() const;

    /**
     * Persist the saveState() payload.  The file is replaced
     * atomically (temp-write + rename).
     */
    void save(const std::string &path) const;

    /**
     * restoreState() over a file written by save().  Io when the file
     * cannot be read; TrailingData when bytes follow the payload (the
     * model is then already restored).
     */
    [[nodiscard]] Result<void> load(const std::string &path);

    /**
     * Serialize the trained model: a tag naming the FutureKind and the
     * target encoding, then weights, normalization state, both scalers
     * and the training RNG's stream position (so fineTune() on a
     * restored model draws what the original would have drawn).
     *
     * @pre trained().
     */
    void saveState(io::BinaryWriter &out) const;

    /**
     * Restore a saveState() payload.  FutureKind and ModelConfig must
     * match the constructor arguments: a tag mismatch is BadHeader, a
     * topology mismatch Geometry.  Everything is decoded before
     * anything is committed, so on error the model is unchanged; on
     * success it is trained and its memos are cold.
     */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    FutureKind future ADRIAS_NOT_CHECKPOINTED(
        "constructor input, checked against the payload tag");
    ModelConfig config ADRIAS_NOT_CHECKPOINTED(
        "constructor input: logTarget is checked against the payload "
        "tag, the topology by restoreState()'s shape checks");
    mutable Rng rng;
    std::unique_ptr<ml::Lstm> historyLstm1;
    std::unique_ptr<ml::Lstm> historyLstm2;
    std::unique_ptr<ml::Lstm> signatureLstm1;
    std::unique_ptr<ml::Lstm> signatureLstm2;
    std::unique_ptr<ml::Sequential> head;
    ml::StandardScaler counterScaler; ///< shared by S, k and Ŝ
    ml::StandardScaler targetScaler;
    bool isTrained = false;

    /**
     * predictBatch()'s branch outputs keyed by the raw sequence: the
     * k_last row per signature and the h_last row per history window.
     * Cleared by fitLoop() and restoreState().
     */
    mutable EncodingMemo signatureMemo ADRIAS_NOT_CHECKPOINTED(
        "derived state: a restored model re-encodes on first use");
    mutable EncodingMemo historyMemo ADRIAS_NOT_CHECKPOINTED(
        "derived state: a restored model re-encodes on first use");

    /** predictBatch()'s head input, then output: kept storage. */
    mutable ml::Matrix headInput ADRIAS_NOT_CHECKPOINTED(
        "scratch: predictBatch() rebuilds it every call");

    std::size_t futureWidth() const;

    /** Leads every saveState() payload; names future and logTarget. */
    std::string payloadTag() const;

    /**
     * Resolve the Ŝ input of every sample given this model's kind
     * (empty matrices for FutureKind::None; batched system-state
     * forwards for FutureKind::Predicted).
     */
    std::vector<ml::Matrix>
    resolveFutures(const std::vector<scenario::PerformanceSample> &samples,
                   const SystemStateModel *system) const;

    /** Raw-target <-> regression-space transforms (log when enabled). */
    double encodeTarget(double target) const;
    double decodeTarget(double encoded) const;

    /** Shared epoch loop of train() and fineTune(). */
    double fitLoop(const std::vector<scenario::PerformanceSample> &samples,
                   const SystemStateModel *system, std::size_t epochs,
                   double learning_rate);

    /** Batched forward; returns (B x 1) scaled prediction. */
    ml::Matrix forwardBatch(const std::vector<ml::Matrix> &history,
                            const std::vector<ml::Matrix> &signature,
                            const ml::Matrix &mode_col,
                            const ml::Matrix &future_rows) const;

    void backwardBatch(const ml::Matrix &grad_output,
                       std::size_t batch_rows) const;
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_PERFORMANCE_HH
