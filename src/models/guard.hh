/**
 * @file
 * Resilience guard around the Predictor (the "Predictor gets sick"
 * half of the failure model).
 *
 * GuardedPredictor wraps any PredictorBase with:
 *  - input validation (histories/signatures must be finite),
 *  - a per-call inference deadline against a modelled latency (which
 *    the FaultInjector can spike),
 *  - a circuit breaker: after K consecutive failures the prediction
 *    path is declared unhealthy and calls are rejected immediately,
 *    with exponential backoff and half-open probing before recovery.
 *
 * When a prediction cannot be served the guard throws
 * PredictionUnavailable; the Orchestrator catches it and falls back to
 * its heuristic (degraded-mode) placement policy.
 */

#ifndef ADRIAS_MODELS_GUARD_HH
#define ADRIAS_MODELS_GUARD_HH

#include <stdexcept>

#include "common/io/checkpoint_annotations.hh"
#include "fault/circuit_breaker.hh"
#include "fault/fault.hh"
#include "models/predictor.hh"

namespace adrias::models
{

/** Raised when the guarded prediction path cannot serve a decision. */
class PredictionUnavailable : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Guard tuning knobs. */
struct PredictorGuardConfig
{
    /**
     * Per-call inference budget, ms.  The budget is a hard, exclusive
     * bound: a modelled latency of exactly deadlineMs already counts
     * as a deadline miss (tally, fail() and breaker all agree on this
     * boundary).  Must satisfy baseLatencyMs < deadlineMs, or every
     * call fails.
     */
    double deadlineMs = 25.0;

    /** Modelled healthy inference latency, ms. */
    double baseLatencyMs = 2.0;

    /** Breaker tuning. */
    fault::CircuitBreakerConfig breaker{};
};

/** Guard tallies (breaker tallies live in the breaker itself). */
struct PredictorGuardStats
{
    std::size_t calls = 0;
    std::size_t served = 0;
    std::size_t failures = 0;          ///< crashes + deadline + bad output
    std::size_t deadlineExceeded = 0;
    std::size_t invalidInputs = 0;
    std::size_t rejectedByBreaker = 0;
    std::size_t injectedCrashes = 0;
};

/**
 * PredictorBase decorator adding validation, deadline and breaker.
 *
 * The decision clock is simulation time: the Orchestrator calls
 * beginDecision(now) before querying, so backoff and recovery follow
 * scenario time deterministically.
 */
class GuardedPredictor : public PredictorBase
{
  public:
    /**
     * @param inner the real prediction stack (borrowed).
     * @param config guard tuning.
     * @param injector optional fault source for crash/latency windows
     *        (borrowed; may be nullptr for a pure defensive guard).
     */
    explicit GuardedPredictor(const PredictorBase &inner,
                              PredictorGuardConfig config = {},
                              fault::FaultInjector *injector = nullptr);

    /** Set the decision time used by deadline/breaker bookkeeping. */
    void beginDecision(SimTime now) { decisionTime = now; }

    ml::Matrix
    predictSystemState(const telemetry::Watcher &watcher) const override;

    double
    predictPerformance(WorkloadClass cls,
                       const std::vector<ml::Matrix> &history,
                       const std::vector<ml::Matrix> &signature,
                       MemoryMode mode) const override;

    /**
     * Batched variant with ONE admission gate for the whole batch: a
     * single breaker request, crash-window salt and modelled-latency
     * deadline check covers all rows, because the fused fast-path runs
     * one inference regardless of the batch size.  The per-request
     * tallies (calls, served) advance by the batch size; gate events
     * (breaker rejections, crashes, deadline misses) count once per
     * batch.  Any gate failure fails the entire batch — per-request
     * deadlines are the serving layer's job (it sizes batches so the
     * inference budget fits every member's deadline).
     *
     * The inline orchestrator follows the same rule: a decision asks
     * one batch over every warm node × {Local, Remote}, so it is ONE
     * admission — on the paper pair calls advance by 2, the
     * crash-window salt (callCounter) by 1, and a crash window costs
     * the decision one fallback rather than up to two coin flips.
     */
    std::vector<double>
    predictPerformanceBatch(WorkloadClass cls,
                            const std::vector<PerfQuery> &queries)
        const override;

    bool trained() const override { return wrapped->trained(); }

    /** @return true while the breaker is not Closed. */
    bool
    degraded() const
    {
        return breakerGate.state() != fault::BreakerState::Closed;
    }

    const fault::CircuitBreaker &breaker() const { return breakerGate; }
    const PredictorGuardStats &stats() const { return tallies; }
    const PredictorGuardConfig &config() const { return knobs; }

    /**
     * Serialize the guard's evolving state: breaker machine, tallies,
     * fault-salt call counter and decision clock.  The call counter
     * feeds the FaultInjector's crash-window hash, so restoring it is
     * required for bit-identical fault behaviour after recovery.
     */
    void saveState(io::BinaryWriter &out) const;

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    const PredictorBase *wrapped ADRIAS_NOT_CHECKPOINTED(
        "borrowed predictor wiring, re-attached at construction");
    PredictorGuardConfig knobs ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration, re-supplied on restore");
    fault::FaultInjector *faults ADRIAS_NOT_CHECKPOINTED(
        "runtime wiring; the injector checkpoints under its own tag");

    // The PredictorBase interface is const; the guard's bookkeeping is
    // logically observational state.
    mutable fault::CircuitBreaker breakerGate;
    mutable PredictorGuardStats tallies;
    mutable std::uint64_t callCounter = 0;
    SimTime decisionTime = 0;

    /** Breaker state last reported to obs (transition detection). */
    mutable fault::BreakerState obsBreakerState
        ADRIAS_NOT_CHECKPOINTED(
            "obs transition-detection cache; restoreState resyncs it "
            "from the restored breaker") = fault::BreakerState::Closed;

    /**
     * Common gate for every prediction entry point.  `weight` is the
     * number of requests this admission covers (the batch size for the
     * batched path): the calls tally advances by it, while the gate
     * itself — breaker, crash window, deadline — fires once.
     */
    void admitCall(std::uint64_t salt, std::size_t weight = 1) const;

    /**
     * Report a breaker state change to the observability layer (no-op
     * when the state is unchanged or obs is compiled out/disabled).
     */
    void obsBreakerSync() const;

    [[noreturn]] void fail(const std::string &reason,
                           bool breaker_failure) const;
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_GUARD_HH
