/**
 * @file
 * Threshold-based dynamic migrator — a reference L2 runtime-management
 * mechanism (paper §II) complementary to the L1 Adrias orchestrator.
 *
 * Watches each remote-placed deployment's recent slowdown; when the
 * exponential moving average exceeds a threshold the app is demoted to
 * local DRAM, paying a pause proportional to its memory footprint
 * copied over the channel.
 */

#ifndef ADRIAS_CORE_RUNTIME_MIGRATOR_HH
#define ADRIAS_CORE_RUNTIME_MIGRATOR_HH

#include <map>

#include "scenario/runtime.hh"
#include "stats/ewma.hh"

namespace adrias::core
{

/** Knobs of the threshold migrator. */
struct MigratorConfig
{
    /** Demote a remote app once its EWMA slowdown exceeds this. */
    double slowdownThreshold = 2.0;

    /** EWMA smoothing factor per one-second tick. */
    double ewmaAlpha = 0.2;

    /** Ticks an app must be observed before it may migrate. */
    std::size_t warmupTicks = 10;

    /** Effective copy bandwidth for the migration pause, GB/s. */
    double copyBandwidthGBps = 0.3125;

    /** Migrations allowed per deployment (thrashing guard). */
    std::size_t maxMigrationsPerApp = 1;
};

/** Demote-on-contention runtime manager. */
class ThresholdMigrator : public scenario::RuntimePolicy
{
  public:
    explicit ThresholdMigrator(MigratorConfig config = {});

    std::string name() const override { return "threshold-migrator"; }

    void
    onTick(const std::vector<workloads::WorkloadInstance *> &running,
           const testbed::TickResult &tick, SimTime now) override;

  private:
    MigratorConfig config;

    struct AppState
    {
        stats::Ewma ewma;
        std::size_t migrations = 0;

        explicit AppState(double alpha) : ewma(alpha) {}
    };
    std::map<DeploymentId, AppState> state;
};

} // namespace adrias::core

#endif // ADRIAS_CORE_RUNTIME_MIGRATOR_HH
