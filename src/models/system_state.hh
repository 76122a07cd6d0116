/**
 * @file
 * The system-state prediction model (paper Fig. 11a, Table I): two
 * stacked LSTM layers over the binned 120 s history window, followed by
 * the non-linear head, predicting the mean of every monitored event
 * over the next 120 s.
 */

#ifndef ADRIAS_MODELS_SYSTEM_STATE_HH
#define ADRIAS_MODELS_SYSTEM_STATE_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "models/config.hh"
#include "models/encoding_memo.hh"
#include "models/recurrent_regressor.hh"
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
    bool trained() const { return net.trained(); }

    /** Ŝ forecasts the state memo holds right now. */
    // NOLINTNEXTLINE(unused-api): test seam; memo hits are bitwise silent.
    std::size_t memoizedStates() const { return stateMemo.size(); }

    /**
     * Persistence through RecurrentRegressor.  The payload holds the
     * weights, normalization state, both scalers and the training
     * RNG's stream position; every restore decodes it whole before it
     * commits anything, so on error the model is unchanged.
     *
     * save() replaces `path` atomically, so a serving process can
     * reload the model without retraining.  @pre trained().
     */
    void save(const std::string &path) const
    {
        net.save(path, kPayloadFormat);
    }

    /** Io, TrailingData or a decode error. */
    [[nodiscard]] Result<void>
    load(const std::string &path)
    {
        return restoreState(net.decodeFile(path, kPayloadFormat));
    }

    /** @pre trained(). */
    void
    saveState(io::BinaryWriter &out) const
    {
        net.saveState(out, kPayloadFormat);
    }

    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in)
    {
        return restoreState(decodeState(in));
    }

    /** A topology other than the constructor's is Geometry. */
    [[nodiscard]] Result<RecurrentRegressor::Payload>
    decodeState(io::BinaryReader &in) const
    {
        return net.decodeState(in, kPayloadFormat);
    }

    /** Commit a decodeState() result (or return its error). */
    [[nodiscard]] Result<void>
    restoreState(Result<RecurrentRegressor::Payload> payload)
    {
        if (!payload)
            return payload.error();
        net.restoreState(std::move(payload.value()));
        stateMemo.clear();
        return {};
    }

  private:
    /** Leads every saveState() payload. */
    static constexpr std::string_view kPayloadFormat =
        "system-state-model-v1";

    RecurrentRegressor net; ///< one encoder (S), kNumPerfEvents outputs

    /**
     * predictBatch()'s inverse-scaled Ŝ row per history window, keyed
     * by the raw window.  Cleared by train() and restoreState().
     */
    mutable EncodingMemo stateMemo ADRIAS_NOT_CHECKPOINTED(
        "derived state: a restored model re-forecasts on first use");
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_SYSTEM_STATE_HH
