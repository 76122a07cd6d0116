#include "workloads/workload.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/invariant.hh"
#include "common/logging.hh"

namespace adrias::workloads
{

WorkloadInstance::WorkloadInstance(DeploymentId id, const WorkloadSpec &spec,
                                   MemoryMode mode, SimTime arrival_,
                                   std::uint64_t seed, double load_factor)
    : deploymentId(id), specification(&spec), arrival(arrival_),
      loadFactor(load_factor), noiseSeed(seed), memoryMode(mode)
{
    if (load_factor <= 0.0)
        fatal("WorkloadInstance: load factor must be positive");
}

WorkloadInstance::WorkloadInstance(WorkloadInstance &&other) noexcept
    : deploymentId(other.deploymentId),
      specification(other.specification), arrival(other.arrival),
      loadFactor(other.loadFactor), noiseSeed(other.noiseSeed),
      memoryMode(other.memoryMode), done(other.done),
      completion(other.completion),
      progressSec(other.progressSec), elapsedSec(other.elapsedSec),
      requestsServed(other.requestsServed),
      latencyScales(std::move(other.latencyScales)),
      slowdownSum(other.slowdownSum), ticks(other.ticks),
      remoteGb(other.remoteGb),
      migrationRemaining(other.migrationRemaining),
      migrationPauseTotal(other.migrationPauseTotal),
      migrationTarget(other.migrationTarget),
      migrationsDone(other.migrationsDone)
{
}

WorkloadInstance &
WorkloadInstance::operator=(WorkloadInstance &&other) noexcept
{
    if (this == &other)
        return *this;
    deploymentId = other.deploymentId;
    specification = other.specification;
    arrival = other.arrival;
    loadFactor = other.loadFactor;
    noiseSeed = other.noiseSeed;
    memoryMode = other.memoryMode;
    done = other.done;
    completion = other.completion;
    progressSec = other.progressSec;
    elapsedSec = other.elapsedSec;
    requestsServed = other.requestsServed;
    latencyScales = std::move(other.latencyScales);
    slowdownSum = other.slowdownSum;
    ticks = other.ticks;
    remoteGb = other.remoteGb;
    migrationRemaining = other.migrationRemaining;
    migrationPauseTotal = other.migrationPauseTotal;
    migrationTarget = other.migrationTarget;
    migrationsDone = other.migrationsDone;
    return *this;
}

void
WorkloadInstance::saveState(io::BinaryWriter &out) const
{
    MutexLock lock(mu);
    out.writeU64(deploymentId);
    out.writeString(specification->name);
    out.writeI64(arrival);
    out.writeF64(loadFactor);
    out.writeU8(static_cast<std::uint8_t>(memoryMode));
    out.writeU64(noiseSeed);
    out.writeBool(done);
    out.writeI64(completion);
    out.writeF64(progressSec);
    out.writeF64(elapsedSec);
    out.writeF64(requestsServed);
    out.writeF64Vector(latencyScales);
    out.writeF64(slowdownSum);
    out.writeU64(ticks);
    out.writeF64(remoteGb);
    out.writeF64(migrationRemaining);
    out.writeF64(migrationPauseTotal);
    out.writeU8(static_cast<std::uint8_t>(migrationTarget));
    out.writeU64(migrationsDone);
}

Result<std::unique_ptr<WorkloadInstance>>
WorkloadInstance::restoreFromState(io::BinaryReader &in)
{
    const DeploymentId id = in.readU64();
    const std::string specName = in.readString();
    const SimTime arrival = in.readI64();
    const double loadFactor = in.readF64();
    const std::uint8_t rawMode = in.readU8();
    const std::uint64_t noiseSeed = in.readU64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "WorkloadInstance: truncated identity fields");
    const WorkloadSpec *spec = findSpec(specName);
    if (spec == nullptr)
        return makeError(ErrorCode::BadToken,
                         "WorkloadInstance: unknown spec '" + specName +
                             "' in snapshot");
    if (rawMode > static_cast<std::uint8_t>(MemoryMode::Remote))
        return makeError(ErrorCode::BadNumber,
                         "WorkloadInstance: invalid memory mode");
    if (loadFactor <= 0.0)
        return makeError(ErrorCode::BadNumber,
                         "WorkloadInstance: non-positive load factor");

    const MemoryMode memoryMode = static_cast<MemoryMode>(rawMode);
    auto instance = std::make_unique<WorkloadInstance>(
        id, *spec, memoryMode, arrival, noiseSeed, loadFactor);
    MutexLock lock(instance->mu);
    instance->done = in.readBool();
    instance->completion = in.readI64();
    instance->progressSec = in.readF64();
    instance->elapsedSec = in.readF64();
    instance->requestsServed = in.readF64();
    instance->latencyScales = in.readF64Vector();
    instance->slowdownSum = in.readF64();
    instance->ticks = in.readU64();
    instance->remoteGb = in.readF64();
    instance->migrationRemaining = in.readF64();
    instance->migrationPauseTotal = in.readF64();
    const std::uint8_t rawTarget = in.readU8();
    instance->migrationsDone = in.readU64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "WorkloadInstance: truncated run state");
    if (rawTarget > static_cast<std::uint8_t>(MemoryMode::Remote))
        return makeError(ErrorCode::BadNumber,
                         "WorkloadInstance: invalid migration target");
    for (double scale : instance->latencyScales)
        if (!(std::isfinite(scale) && scale >= 0.0))
            return makeError(ErrorCode::BadNumber,
                             "WorkloadInstance: latency scale is negative "
                             "or not finite");
    instance->migrationTarget = static_cast<MemoryMode>(rawTarget);
    return instance;
}

testbed::LoadDescriptor
WorkloadInstance::load() const
{
    MutexLock lock(mu);
    testbed::LoadDescriptor descriptor =
        specification->toLoad(deploymentId, memoryMode);
    if (specification->cls == WorkloadClass::LatencyCritical) {
        // Heavier client load raises both CPU and memory pressure.
        descriptor.cpuCores *= loadFactor;
        descriptor.memDemandGBps *= loadFactor;
        descriptor.llcAccessGBps *= loadFactor;
    }
    return descriptor;
}

void
WorkloadInstance::advance(const testbed::LoadOutcome &outcome, SimTime now)
{
    MutexLock lock(mu);
    if (done)
        panic("WorkloadInstance::advance after completion");
    if (outcome.id != deploymentId)
        panic("WorkloadInstance::advance got another instance's outcome");

    const double slowdown = std::max(1.0, outcome.slowdown);
    slowdownSum += slowdown;
    ++ticks;
    elapsedSec += 1.0;
    if (memoryMode == MemoryMode::Remote)
        remoteGb += outcome.achievedGBps; // GB/s over a 1 s tick

    // A migration pause stalls progress while the pool copy runs.
    if (migrationRemaining > 0.0) {
        migrationRemaining -= 1.0;
        // The copy itself crosses the channel, spread over the pause.
        remoteGb +=
            specification->memoryFootprintGb / migrationPauseTotal;
        if (migrationRemaining <= 0.0) {
            memoryMode = migrationTarget;
            ++migrationsDone;
        }
        return;
    }

    switch (specification->cls) {
      case WorkloadClass::BestEffort:
        progressSec += 1.0 / slowdown;
        if (progressSec >= specification->baseDurationSec) {
            done = true;
            completion = now;
        }
        break;
      case WorkloadClass::LatencyCritical:
        advanceLatencyCritical(outcome);
        if (requestsServed >= specification->totalRequests) {
            done = true;
            completion = now;
        }
        break;
      case WorkloadClass::Interference:
        // Trashers run for fixed wall-clock time regardless of their
        // own slowdown.
        if (elapsedSec >= specification->baseDurationSec) {
            done = true;
            completion = now;
        }
        break;
    }
}

void
WorkloadInstance::advanceLatencyCritical(const testbed::LoadOutcome &outcome)
{
    const double slowdown = std::max(1.0, outcome.slowdown);

    // Closed-loop clients: the server drains its nominal rate divided
    // by the slowdown; heavier client load raises utilization and the
    // queueing tail (M/M/1-flavoured inflation, normalized so nominal
    // isolated load gives multiplier 1).
    const double utilization = std::min(
        0.98, kBaseUtilization * loadFactor * slowdown);
    const double queue_mult =
        (1.0 - kBaseUtilization) / (1.0 - utilization);

    // Queueing sanity: a stable server (utilization < 1) implies a
    // finite, non-negative queue depth and latency inflation.
    ADRIAS_INVARIANT_GE(utilization, 0.0);
    ADRIAS_INVARIANT(utilization < 1.0,
                     "utilization=" + std::to_string(utilization));
    ADRIAS_INVARIANT_GE(queue_mult, 0.0);

    // Requests drained this one-second tick.
    requestsServed +=
        specification->serviceRatePerSec * loadFactor / slowdown;
    ADRIAS_INVARIANT_GE(requestsServed, 0.0);

    // The tick's request latencies are this scale times lognormal
    // noise drawn from the instance's seed (lc_latency.hh).
    const double scale =
        specification->baseLatencyMs * slowdown * queue_mult;
    ADRIAS_INVARIANT_FINITE(scale);
    ADRIAS_INVARIANT_GE(scale, 0.0);
    latencyScales.push_back(scale);
}

double
WorkloadInstance::executionTimeSec() const
{
    MutexLock lock(mu);
    if (!done)
        return elapsedSec;
    return static_cast<double>(completion - arrival);
}

double
WorkloadInstance::tailLatencyMs(double q) const
{
    return tailLatenciesMs({q}).ms.front();
}

LatencyTail
WorkloadInstance::tailLatenciesMs(std::initializer_list<double> qs) const
{
    MutexLock lock(mu);
    return lcLatencyTail(noiseSeed, latencyScales,
                         specification->latencySigma, qs);
}

double
WorkloadInstance::meanSlowdown() const
{
    MutexLock lock(mu);
    return ticks == 0 ? 1.0 : slowdownSum / static_cast<double>(ticks);
}

bool
WorkloadInstance::requestMigration(MemoryMode target, double pause_sec)
{
    if (pause_sec <= 0.0)
        fatal("WorkloadInstance::requestMigration: pause must be "
              "positive");
    MutexLock lock(mu);
    if (done)
        panic("WorkloadInstance::requestMigration after completion");
    if (memoryMode == target || migratingLocked())
        return false;
    migrationTarget = target;
    migrationRemaining = pause_sec;
    migrationPauseTotal = pause_sec;
    return true;
}

} // namespace adrias::workloads
