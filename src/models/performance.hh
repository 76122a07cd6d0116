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
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "models/config.hh"
#include "models/encoding_memo.hh"
#include "models/recurrent_regressor.hh"
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
    // NOLINTNEXTLINE(unused-api): kept until fine-tuning gets a caller.
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

    bool trained() const { return net.trained(); }

    /** Signature encodings the signature memo holds right now. */
    // NOLINTNEXTLINE(unused-api): test seam; memo hits are bitwise silent.
    std::size_t memoizedSignatures() const { return signatureMemo.size(); }

    /** History encodings the history memo holds right now. */
    // NOLINTNEXTLINE(unused-api): test seam; memo hits are bitwise silent.
    std::size_t memoizedHistories() const { return historyMemo.size(); }

    /**
     * All trainable parameters.  Writing weights through these pointers
     * bypasses the signature and history memos (and the system-state
     * model's Ŝ memo, for a Predicted model's inputs); only train(),
     * fineTune() and restoreState() of the model that owns a memo
     * invalidate it.
     */
    std::vector<ml::Param *> params() const { return net.params(); }

    /**
     * Persistence through RecurrentRegressor.  The payload opens with a
     * tag naming the FutureKind and the target encoding, then holds the
     * weights, normalization state, both scalers and the training RNG's
     * stream position (so fineTune() on a restored model draws what the
     * original would have drawn).  Every restore decodes it whole before
     * it commits anything, so on error the model is unchanged.
     *
     * save() replaces `path` atomically.  @pre trained().
     */
    void save(const std::string &path) const { net.save(path, payloadTag()); }

    /** Io, TrailingData or a decode error. */
    [[nodiscard]] Result<void>
    load(const std::string &path)
    {
        return restoreState(net.decodeFile(path, payloadTag()));
    }

    /** @pre trained(). */
    void
    saveState(io::BinaryWriter &out) const
    {
        net.saveState(out, payloadTag());
    }

    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in)
    {
        return restoreState(decodeState(in));
    }

    /**
     * Another FutureKind or logTarget than the constructor's is
     * BadHeader, another topology Geometry.
     */
    [[nodiscard]] Result<RecurrentRegressor::Payload>
    decodeState(io::BinaryReader &in) const
    {
        return net.decodeState(in, payloadTag());
    }

    /** Commit a decodeState() result (or return its error). */
    [[nodiscard]] Result<void>
    restoreState(Result<RecurrentRegressor::Payload> payload)
    {
        if (!payload)
            return payload.error();
        net.restoreState(std::move(payload.value()));
        signatureMemo.clear();
        historyMemo.clear();
        return {};
    }

  private:
    FutureKind future ADRIAS_NOT_CHECKPOINTED(
        "constructor input, checked against the payload tag");

    RecurrentRegressor net; ///< encoders S then k; mode, Ŝ; one output

    /**
     * predictBatch()'s encoder outputs keyed by the raw sequence: the
     * k_last row per signature and the h_last row per history window.
     * Cleared by fit() and restoreState().
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

    /** What train() and fineTune() share: memos, Ŝ, then net.fit(). */
    double fit(const std::vector<scenario::PerformanceSample> &samples,
               const SystemStateModel *system, std::size_t epochs,
               double learning_rate);
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_PERFORMANCE_HH
