#include "recovery/recoverable.hh"

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "testbed/topology.hh"

namespace adrias::recovery
{

namespace
{

constexpr const char *kJournalPrefix = "journal-";
constexpr const char *kJournalSuffix = ".adj";

/** Parse the epoch out of "journal-<tick>.adj"; -1 when not one. */
SimTime
parseJournalTick(const std::string &filename)
{
    const std::string prefix(kJournalPrefix);
    const std::string suffix(kJournalSuffix);
    if (filename.size() <= prefix.size() + suffix.size() ||
        filename.compare(0, prefix.size(), prefix) != 0 ||
        filename.compare(filename.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
        return -1;
    const std::string digits = filename.substr(
        prefix.size(), filename.size() - prefix.size() - suffix.size());
    SimTime tick = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return -1;
        tick = tick * 10 + (c - '0');
    }
    return tick;
}

} // namespace

RecoverableScenario::RecoverableScenario(scenario::ScenarioConfig config_,
                                         RecoveryConfig recovery_)
    : config(config_), recovery(std::move(recovery_)),
      manager(CheckpointConfig{recovery.dir, recovery.checkpointEverySec,
                               recovery.keepSnapshots}),
      engineState(std::make_unique<scenario::ScenarioEngine>(config_))
{
    manager.attach(*engineState);
}

void
RecoverableScenario::attachSection(io::Checkpointable &section)
{
    if (started)
        panic("RecoverableScenario: attachSection after start()");
    manager.attach(section);
}

void
RecoverableScenario::setCrashInjector(fault::CrashInjector *injector)
{
    crash = injector;
    wireJournalChaos();
}

std::string
RecoverableScenario::journalPath(SimTime epochTick) const
{
    return recovery.dir + "/" + kJournalPrefix +
           std::to_string(epochTick) + kJournalSuffix;
}

std::vector<SimTime>
RecoverableScenario::journalTicks() const
{
    std::vector<SimTime> ticks;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(recovery.dir, ec)) {
        const SimTime tick =
            parseJournalTick(entry.path().filename().string());
        if (tick >= 0)
            ticks.push_back(tick);
    }
    std::sort(ticks.begin(), ticks.end());
    return ticks;
}

Result<RecoveryReport>
RecoverableScenario::start()
{
    if (started)
        panic("RecoverableScenario::start called twice");
    started = true;

    // The journal records the memory mode only, which is the whole
    // decision on one node but not on a rack: replaying it there would
    // "verify" decisions without checking node, server or link.
    const testbed::Topology topo = testbed::topologyByName(config.topology);
    if (topo.nodeCount() != 1)
        return makeError(ErrorCode::Geometry,
                         "RecoverableScenario: topology '" + topo.name() +
                             "' has " + std::to_string(topo.nodeCount()) +
                             " nodes, but the decision journal records "
                             "one node's memory mode only; crash "
                             "recovery runs on one-node topologies");

    std::error_code ec;
    std::filesystem::create_directories(recovery.dir, ec);
    manager.removeOrphanTempFiles();

    Result<RestoreOutcome> outcome = manager.restoreLatest();
    if (!outcome.ok())
        return outcome.error();

    RecoveryReport report;
    report.restored = outcome.value().restored;
    report.snapshotTick = outcome.value().snapshotTick;
    report.rejectedSnapshots = outcome.value().rejectedSnapshots;

    // Replay every journal epoch at or after the restored snapshot, in
    // epoch order.  Older epochs describe ticks the snapshot already
    // contains and are skipped whole.
    const SimTime snapTick = report.snapshotTick;
    SimTime currentEpoch = snapTick;
    for (SimTime epoch : journalTicks()) {
        if (epoch < snapTick)
            continue;
        Result<DecisionJournal::LoadResult> loaded =
            DecisionJournal::loadAndCompact(journalPath(epoch));
        if (!loaded.ok())
            return loaded.error();
        if (loaded.value().tornTail)
            ++report.tornTails;
        for (const scenario::PlacementDecision &decision :
             loaded.value().decisions) {
            engineState->queueReplayDecision(decision);
            ++report.replayedDecisions;
        }
        currentEpoch = epoch;
    }

    // Appends continue in the NEWEST epoch on disk even when recovery
    // fell back to an older snapshot — epoch files must stay
    // tick-ordered for the next recovery's ascending replay.
    const std::string path = journalPath(currentEpoch);
    const bool resume = std::filesystem::exists(path);
    if (Result<void> opened = journal.open(path, resume); !opened.ok())
        return opened.error();
    wireJournalChaos();
    engineState->setDecisionSink(&journal);

#if ADRIAS_OBS_ENABLED
    if (obs::enabled() && report.replayedDecisions > 0) {
        static obs::Counter &replayed_c =
            obs::MetricsRegistry::global().counter(
                "recovery.decisions_replayed");
        replayed_c.add(report.replayedDecisions);
    }
#endif

    lastReport = report;
    return report;
}

scenario::ScenarioResult
RecoverableScenario::run(scenario::ClusterPolicy &policy,
                         scenario::RuntimePolicy *runtime)
{
    if (!journal.isOpen())
        panic("RecoverableScenario::run before successful start()");
    while (!engineState->finished()) {
        if (crash)
            crash->maybeCrash(fault::CrashSite::BetweenTicks,
                              engineState->now());
        engineState->stepTick(policy, runtime);
        maybeCheckpoint();
    }
    journal.close();
    return engineState->finish();
}

void
RecoverableScenario::maybeCheckpoint()
{
    // Decisions still queued for replay belong to the previous journal
    // epoch; snapshotting mid-replay would tear the epoch boundary.
    if (engineState->pendingReplay() > 0)
        return;
    const SimTime now = engineState->now();
    if (!manager.due(now))
        return;

    manager.setChaosHook(
        [this, now](const char *stage, std::size_t) {
            if (!crash)
                return;
            const std::string_view s(stage);
            if (s == "payload-half")
                crash->maybeCrash(fault::CrashSite::MidCheckpoint, now);
            else if (s == "pre-rename")
                crash->maybeCrash(
                    fault::CrashSite::BeforeCheckpointRename, now);
        });
    if (Result<void> written = manager.checkpointNow(now);
        !written.ok()) {
        // A failed snapshot costs durability, not correctness: the
        // previous snapshot plus a longer journal still recover this
        // run, so keep simulating.
        logWarn("RecoverableScenario: checkpoint at t=" +
                std::to_string(now) +
                " failed: " + written.error().toString());
        return;
    }
    rotateJournal(now);
}

void
RecoverableScenario::rotateJournal(SimTime snapTick)
{
    journal.close();
    if (Result<void> opened = journal.open(journalPath(snapTick));
        !opened.ok())
        fatal("RecoverableScenario: cannot open journal epoch '" +
              journalPath(snapTick) +
              "': " + opened.error().toString());
    wireJournalChaos();

    // Journals older than the oldest kept snapshot can never be
    // replayed again.
    const SimTime oldest = manager.oldestKeptTick();
    for (SimTime epoch : journalTicks()) {
        if (epoch >= oldest)
            continue;
        std::error_code ec;
        std::filesystem::remove(journalPath(epoch), ec);
    }
}

void
RecoverableScenario::wireJournalChaos()
{
    journal.setChaosHook([this](const char *stage, std::size_t) {
        if (crash && std::string_view(stage) == "record-half")
            crash->maybeCrash(fault::CrashSite::MidJournalAppend,
                              engineState->now());
    });
}

} // namespace adrias::recovery
