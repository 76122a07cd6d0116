#include "core/runtime_migrator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adrias::core
{

ThresholdMigrator::ThresholdMigrator(MigratorConfig config_)
    : config(config_)
{
    if (config.slowdownThreshold <= 1.0)
        fatal("ThresholdMigrator: threshold must exceed 1");
    if (config.ewmaAlpha <= 0.0 || config.ewmaAlpha > 1.0)
        fatal("ThresholdMigrator: alpha must lie in (0, 1]");
    if (config.copyBandwidthGBps <= 0.0)
        fatal("ThresholdMigrator: copy bandwidth must be positive");
}

void
ThresholdMigrator::onTick(
    const std::vector<workloads::WorkloadInstance *> &running,
    const testbed::TickResult &tick, SimTime now)
{
    (void)now;
    if (running.size() != tick.outcomes.size())
        panic("ThresholdMigrator: outcome/instance misalignment");

    for (std::size_t i = 0; i < running.size(); ++i) {
        workloads::WorkloadInstance *app = running[i];
        if (app->finished() || app->migrating())
            continue;
        // Trashers are background noise, not managed workloads.
        if (app->spec().cls == WorkloadClass::Interference)
            continue;

        auto [it, inserted] = state.try_emplace(
            app->id(), AppState(config.ewmaAlpha));
        AppState &app_state = it->second;
        app_state.ewma.add(tick.outcomes[i].slowdown);

        if (app->mode() != MemoryMode::Remote)
            continue;
        if (app_state.ewma.count() < config.warmupTicks)
            continue;
        if (app_state.migrations >= config.maxMigrationsPerApp)
            continue;
        if (app_state.ewma.value() <= config.slowdownThreshold)
            continue;

        const double pause = std::max(
            1.0, app->spec().memoryFootprintGb /
                     config.copyBandwidthGBps);
        if (app->requestMigration(MemoryMode::Local, pause)) {
            ++app_state.migrations;
            app_state.ewma.reset(1.0); // fresh start on the new pool
        }
    }
}

} // namespace adrias::core
