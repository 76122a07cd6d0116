#include "testbed/rack.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace adrias::testbed
{

double
llcEffectiveHitRate(double base_hit_rate, double footprint_mb,
                    double total_footprint_mb, double capacity_mb)
{
    if (capacity_mb <= 0.0)
        fatal("llcEffectiveHitRate: non-positive capacity");
    if (footprint_mb < 0.0 || total_footprint_mb < footprint_mb)
        panic("llcEffectiveHitRate: inconsistent footprints");
    if (total_footprint_mb <= capacity_mb)
        return base_hit_rate;
    // Under capacity pressure each app keeps a proportional share of
    // its hot set resident; misses grow with the evicted fraction.
    const double resident_fraction = capacity_mb / total_footprint_mb;
    return base_hit_rate * resident_fraction;
}

void
checkRackTickInvariants(const std::vector<LoadDescriptor> &loads,
                        const RackTickResult &result, const Topology &topo,
                        const std::vector<double> &link_bw_scale)
{
    // Resolved shares can land exactly on a cap; allow rounding slack.
    constexpr double kRelTol = 1.0 + 1e-9;
    constexpr double kAbsTol = 1e-9;

    ADRIAS_INVARIANT(result.outcomes.size() == loads.size(),
                     "outcomes=" + std::to_string(result.outcomes.size()) +
                         " loads=" + std::to_string(loads.size()));
    ADRIAS_INVARIANT(result.nodes.size() == topo.nodeCount(),
                     "node stats size mismatch");
    ADRIAS_INVARIANT(result.links.size() == topo.linkCount(),
                     "link stats size mismatch");
    ADRIAS_INVARIANT(result.servers.size() == topo.serverCount(),
                     "server stats size mismatch");

    // Re-derive every per-link / per-server / per-node sum from the
    // outcomes so a contention bug on one link cannot be masked by
    // slack on another.
    std::vector<double> link_achieved(topo.linkCount(), 0.0);
    std::vector<double> server_achieved(topo.serverCount(), 0.0);
    std::vector<double> node_local(topo.nodeCount(), 0.0);
    std::vector<double> node_remote(topo.nodeCount(), 0.0);
    std::vector<double> node_llc_mb(topo.nodeCount(), 0.0);

    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const LoadOutcome &outcome = result.outcomes[i];
        const LoadDescriptor &load = loads[i];
        ADRIAS_INVARIANT_FINITE(outcome.achievedGBps);
        ADRIAS_INVARIANT_GE(outcome.achievedGBps, 0.0);
        ADRIAS_INVARIANT_FINITE(outcome.latencyNs);
        ADRIAS_INVARIANT_GE(outcome.latencyNs, 0.0);
        ADRIAS_INVARIANT_FINITE(outcome.slowdown);
        ADRIAS_INVARIANT_GE(outcome.slowdown, 1.0);
        ADRIAS_INVARIANT_GE(outcome.hitRate, 0.0);
        ADRIAS_INVARIANT_LE(outcome.hitRate,
                            load.baseHitRate * kRelTol + kAbsTol);
        // No deployment achieves more than its own unimpeded demand
        // (every throttle and share is <= 1).
        ADRIAS_INVARIANT_LE(outcome.achievedGBps,
                            load.memDemandGBps * kRelTol + kAbsTol);

        if (load.mode == MemoryMode::Remote) {
            link_achieved[load.link] += outcome.achievedGBps;
            server_achieved[load.server] += outcome.achievedGBps;
            node_remote[load.node] += outcome.achievedGBps;
        } else {
            node_local[load.node] += outcome.achievedGBps;
        }
        if (load.baseHitRate > 0.0) {
            node_llc_mb[load.node] += load.cacheFootprintMb *
                                      outcome.hitRate / load.baseHitRate;
        }
    }

    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        const LinkTickStats &stats = result.links[l];
        const double scale =
            l < link_bw_scale.size() ? link_bw_scale[l] : 1.0;
        const double cap = topo.link(l).profile.bandwidthGBps * scale;

        ADRIAS_INVARIANT_FINITE(stats.offeredGBps);
        ADRIAS_INVARIANT_GE(stats.offeredGBps, 0.0);
        ADRIAS_INVARIANT_GE(stats.queuedGBps, 0.0);
        // Reported per-link delivery equals the sum over outcomes.
        ADRIAS_INVARIANT_LE(
            std::fabs(stats.achievedGBps - link_achieved[l]),
            kAbsTol + 1e-9 * link_achieved[l]);
        // Conservation: bytes in = bytes out + queued.
        ADRIAS_INVARIANT_LE(std::fabs(stats.offeredGBps -
                                      stats.achievedGBps -
                                      stats.queuedGBps),
                            kAbsTol + 1e-9 * stats.offeredGBps);
        // Delivery never exceeds the (fault-derated) link capacity.
        ADRIAS_INVARIANT_LE(link_achieved[l], cap * kRelTol + kAbsTol);
        ADRIAS_INVARIANT_FINITE(stats.pressure);
        ADRIAS_INVARIANT_GE(stats.pressure, 0.0);
        ADRIAS_INVARIANT_FINITE(stats.latencyCycles);
        ADRIAS_INVARIANT_GE(stats.latencyCycles * kRelTol,
                            topo.link(l).profile.latencyBaseCycles);
    }

    for (std::size_t s = 0; s < topo.serverCount(); ++s) {
        const ServerTickStats &stats = result.servers[s];
        ADRIAS_INVARIANT_LE(
            std::fabs(stats.achievedGBps - server_achieved[s]),
            kAbsTol + 1e-9 * server_achieved[s]);
        // Server controllers never sustain more than their DRAM cap.
        ADRIAS_INVARIANT_LE(server_achieved[s],
                            topo.server(s).bandwidthGBps * kRelTol +
                                kAbsTol);
        ADRIAS_INVARIANT_GE(stats.allocatedGb, 0.0);
        ADRIAS_INVARIANT_LE(stats.allocatedGb,
                            topo.server(s).capacityGb * kRelTol + kAbsTol);
    }

    for (std::size_t n = 0; n < topo.nodeCount(); ++n) {
        const NodeTickStats &stats = result.nodes[n];
        const TestbedParams &params = topo.node(n).local;
        // R3: remote traffic terminates in the local controllers too.
        const double local_total = node_local[n] + node_remote[n];
        ADRIAS_INVARIANT_LE(std::fabs(stats.localTrafficGBps - local_total),
                            kAbsTol + 1e-9 * local_total);
        ADRIAS_INVARIANT_LE(local_total,
                            params.localBwGBps * kRelTol + kAbsTol);
        ADRIAS_INVARIANT_LE(
            std::fabs(stats.remoteTrafficGBps - node_remote[n]),
            kAbsTol + 1e-9 * node_remote[n]);
        // Resident LLC occupancy shares sum to at most one capacity.
        ADRIAS_INVARIANT_LE(node_llc_mb[n],
                            params.llcCapacityMb * kRelTol + kAbsTol);
        ADRIAS_INVARIANT_FINITE(stats.cpuFactor);
        ADRIAS_INVARIANT_GE(stats.cpuFactor, 0.0);
        ADRIAS_INVARIANT_LE(stats.cpuFactor, 1.0 * kRelTol);
        for (double value : stats.counters) {
            ADRIAS_INVARIANT_FINITE(value);
            ADRIAS_INVARIANT_GE(value, 0.0);
        }
    }
}

RackTestbed::RackTestbed(Topology topology, std::uint64_t seed)
    : topo(std::move(topology)), rng(seed)
{
    topo.validate();
    linkBwScale.assign(topo.linkCount(), 1.0);
    linkLatencyScale.assign(topo.linkCount(), 1.0);
    allocated.assign(topo.serverCount(), 0.0);
    totals.assign(topo.linkCount(), LinkTotals{});
    linkBackpressured.assign(topo.linkCount(), 0);
    for (std::size_t n = 0; n < topo.nodeCount(); ++n) {
        const TestbedParams &params = topo.node(n).local;
        if (params.localBwGBps <= 0.0)
            fatal("RackTestbed: node local bandwidth must be positive");
        if (params.llcCapacityMb <= 0.0)
            fatal("RackTestbed: node LLC capacity must be positive");
    }
    for (std::size_t l = 0; l < topo.linkCount(); ++l)
        if (topo.link(l).profile.bandwidthGBps <= 0.0)
            fatal("RackTestbed: link '" + topo.link(l).name +
                  "' bandwidth must be positive");
}

void
RackTestbed::setLinkFault(std::size_t link, double bw_scale,
                          double latency_scale)
{
    if (link >= topo.linkCount())
        fatal("RackTestbed::setLinkFault: link index out of range");
    if (bw_scale <= 0.0 || bw_scale > 1.0)
        fatal("RackTestbed::setLinkFault: bw scale must be in (0, 1]");
    if (latency_scale < 1.0)
        fatal("RackTestbed::setLinkFault: latency scale must be >= 1");
    linkBwScale[link] = bw_scale;
    linkLatencyScale[link] = latency_scale;
}

Result<void>
RackTestbed::allocate(std::size_t server, double gb)
{
    if (server >= topo.serverCount())
        fatal("RackTestbed::allocate: server index out of range");
    if (gb < 0.0)
        fatal("RackTestbed::allocate: negative size");
    if (allocated[server] + gb >
        topo.server(server).capacityGb + 1e-9) {
        return makeError(ErrorCode::Geometry,
                         "RackTestbed: server '" +
                             topo.server(server).name + "' cannot fit " +
                             std::to_string(gb) + " GB (allocated " +
                             std::to_string(allocated[server]) + " of " +
                             std::to_string(topo.server(server).capacityGb) +
                             " GB)");
    }
    allocated[server] += gb;
    return {};
}

void
RackTestbed::release(std::size_t server, double gb)
{
    if (server >= topo.serverCount())
        fatal("RackTestbed::release: server index out of range");
    if (gb < 0.0)
        fatal("RackTestbed::release: negative size");
    if (gb > allocated[server] + 1e-9)
        panic("RackTestbed::release: releasing more than allocated on '" +
              topo.server(server).name + "'");
    allocated[server] = std::max(0.0, allocated[server] - gb);
}

double
RackTestbed::allocatedGb(std::size_t server) const
{
    if (server >= topo.serverCount())
        fatal("RackTestbed::allocatedGb: server index out of range");
    return allocated[server];
}

double
RackTestbed::availableGb(std::size_t server) const
{
    if (server >= topo.serverCount())
        fatal("RackTestbed::availableGb: server index out of range");
    return std::max(0.0, topo.server(server).capacityGb - allocated[server]);
}

const LinkTotals &
RackTestbed::linkTotals(std::size_t link) const
{
    if (link >= topo.linkCount())
        fatal("RackTestbed::linkTotals: link index out of range");
    return totals[link];
}

const RackTickResult &
RackTestbed::tick(const std::vector<LoadDescriptor> &loads)
{
#if ADRIAS_OBS_ENABLED
    obs::WallSpan tick_span("tick", "testbed");
#endif
    RackTickResult &result = resolved;
    const std::size_t n_loads = loads.size();
    const std::size_t n_nodes = topo.nodeCount();
    const std::size_t n_links = topo.linkCount();
    const std::size_t n_servers = topo.serverCount();

    result.outcomes.resize(n_loads); // every field is written below
    result.nodes.assign(n_nodes, NodeTickStats{});
    result.links.assign(n_links, LinkTickStats{});
    result.servers.assign(n_servers, ServerTickStats{});

    // Every aggregate below sums in input order and multiplies shares
    // in a fixed order, so a 1×1 topology performs exactly the
    // arithmetic of the paper's single-channel model.
    RackTickScratch &s = scratch;
    s.loadDemand.resize(n_loads);
    s.nodes.assign(n_nodes, {});
    s.links.assign(n_links, {});
    s.serverShare.resize(n_servers);

    // A remote deployment's issueable traffic throttles its
    // latency-bound slice by its node's local latency over its link's
    // latency (dependent loads cannot be overlapped across the link).
    // The offered demand at base latency sets each link's pressure,
    // then one fixed-point iteration re-throttles the latency-bound
    // slice at the ramped latency, which is how the FPGAs'
    // back-pressure physically slows issue rates.
    for (std::size_t l = 0; l < n_links; ++l) {
        const LinkDesc &link = topo.link(l);
        s.links[l].throttleRatio = topo.node(link.node).local.localLatencyNs /
                                   link.profile.latencyNs;
    }
    auto remote_demand_at = [&](const LoadDescriptor &load,
                                double lat_scale) {
        const double lat_fraction =
            std::clamp(load.latencyBoundFraction, 0.0, 1.0);
        const double throttle =
            (1.0 - lat_fraction) +
            lat_fraction * s.links[load.link].throttleRatio / lat_scale;
        return load.memDemandGBps * throttle;
    };

    // --- Pass 1: validate placements (scheduler bugs are programming
    //             errors); per-node CPU and LLC pressure; per-link
    //             offered demand at base latency. ------------------------
    for (const LoadDescriptor &load : loads) {
        if (load.node >= n_nodes)
            panic("RackTestbed::tick: load " + std::to_string(load.id) +
                  " placed on unknown node");
        s.nodes[load.node].cpu += load.cpuCores;
        s.nodes[load.node].footprint += load.cacheFootprintMb;
        if (load.mode != MemoryMode::Remote)
            continue;
        if (load.link >= n_links || load.server >= n_servers)
            panic("RackTestbed::tick: load " + std::to_string(load.id) +
                  " carries an out-of-range placement triple");
        const LinkDesc &link = topo.link(load.link);
        if (link.node != load.node || link.server != load.server)
            panic("RackTestbed::tick: load " + std::to_string(load.id) +
                  " routed over link '" + link.name +
                  "' that does not connect its placement");
        s.links[load.link].baseOffered += remote_demand_at(load, 1.0);
    }
    for (std::size_t n = 0; n < n_nodes; ++n) {
        const double cores = topo.node(n).local.cores;
        const double cpu = s.nodes[n].cpu;
        result.nodes[n].cpuFactor = cpu <= cores ? 1.0 : cores / cpu;
    }

    // Link back-pressure (R2 per tier).  An injected link fault shrinks
    // the effective capacity and inflates the back-pressure latency.
    for (std::size_t l = 0; l < n_links; ++l) {
        const LinkProfile &profile = topo.link(l).profile;
        LinkTickStats &link = result.links[l];
        RackTickScratch::Link &scratch_link = s.links[l];
        scratch_link.cap = profile.bandwidthGBps * linkBwScale[l];
        link.pressure = scratch_link.baseOffered / scratch_link.cap;
        link.latencyCycles =
            linkLatencyCycles(profile, link.pressure) * linkLatencyScale[l];
        scratch_link.latScale =
            link.latencyCycles / profile.latencyBaseCycles;
    }

    // --- Pass 2: LLC contention and back-pressured demand. --------------
    for (std::size_t i = 0; i < n_loads; ++i) {
        const LoadDescriptor &load = loads[i];
        LoadOutcome &outcome = result.outcomes[i];
        outcome.id = load.id;
        outcome.hitRate = llcEffectiveHitRate(
            load.baseHitRate, load.cacheFootprintMb,
            s.nodes[load.node].footprint,
            topo.node(load.node).local.llcCapacityMb);
        const double base_miss = std::max(1e-6, 1.0 - load.baseHitRate);
        outcome.missScale =
            std::max(1.0, (1.0 - outcome.hitRate) / base_miss);

        if (load.mode == MemoryMode::Remote) {
            s.loadDemand[i] =
                remote_demand_at(load, s.links[load.link].latScale);
            result.links[load.link].offeredGBps += s.loadDemand[i];
        } else {
            s.loadDemand[i] = load.memDemandGBps;
            s.nodes[load.node].localDemand += s.loadDemand[i];
        }
    }

    // --- Pass 3: link shares, then per-server DRAM bandwidth sharing. --
    for (std::size_t l = 0; l < n_links; ++l) {
        const double offered = result.links[l].offeredGBps;
        const double cap = s.links[l].cap;
        s.links[l].share = offered <= cap ? 1.0 : cap / offered;
        result.servers[topo.link(l).server].demandGBps +=
            offered * s.links[l].share;
    }
    for (std::size_t v = 0; v < n_servers; ++v) {
        const double in = result.servers[v].demandGBps;
        const double bw = topo.server(v).bandwidthGBps;
        s.serverShare[v] = in <= bw ? 1.0 : bw / in;
        result.servers[v].allocatedGb = allocated[v];
    }

    // --- Pass 4: per-node local pool (R3: remote terminates locally). ---
    // Every deployment on one link shares that link's and its server's
    // share, so the terminating remote traffic is summed per link.
    for (std::size_t l = 0; l < n_links; ++l) {
        const LinkDesc &link = topo.link(l);
        s.nodes[link.node].remoteTerm += result.links[l].offeredGBps *
                                         s.links[l].share *
                                         s.serverShare[link.server];
    }
    for (std::size_t n = 0; n < n_nodes; ++n) {
        const TestbedParams &params = topo.node(n).local;
        RackTickScratch::Node &pool = s.nodes[n];
        const double total = pool.localDemand + pool.remoteTerm;
        pool.localShare = total <= params.localBwGBps
                              ? 1.0
                              : params.localBwGBps / total;
        const double util = std::min(1.0, total / params.localBwGBps);
        pool.localLatencyNs =
            params.localLatencyNs *
            (1.0 + params.localLatencyInflation * util * util);
    }

    // What one remote deployment on each link gets: link × server ×
    // local share (in that order: an unconstrained server's exact 1
    // drops out) at the link's ramped latency.
    for (std::size_t l = 0; l < n_links; ++l) {
        const LinkDesc &link = topo.link(l);
        RackTickScratch::Link &scratch_link = s.links[l];
        scratch_link.deployShare = scratch_link.share *
                                   s.serverShare[link.server] *
                                   s.nodes[link.node].localShare;
        scratch_link.latencyNs =
            link.profile.latencyNs * scratch_link.latScale;
    }

    // --- Pass 5: per-deployment outcomes. -------------------------------
    for (std::size_t i = 0; i < n_loads; ++i) {
        const LoadDescriptor &load = loads[i];
        LoadOutcome &outcome = result.outcomes[i];
        NodeTickStats &node = result.nodes[load.node];
        RackTickScratch::Node &pool = s.nodes[load.node];

        double achieved = 0.0;
        if (load.mode == MemoryMode::Remote) {
            achieved = s.loadDemand[i] * s.links[load.link].deployShare;
            outcome.latencyNs = s.links[load.link].latencyNs;
            result.links[load.link].achievedGBps += achieved;
            result.servers[load.server].achievedGBps += achieved;
            node.remoteTrafficGBps += achieved;
        } else {
            achieved = s.loadDemand[i] * pool.localShare;
            outcome.latencyNs = pool.localLatencyNs;
            pool.localAchieved += achieved;
        }
        outcome.achievedGBps = achieved;

        // Memory-phase dilation: the app needed memDemand of useful
        // traffic per unit time (times missScale extra bytes under LLC
        // contention) but only achieves `achieved`.  Latency throttling
        // is already folded into demand, so no extra multiplier.
        double mem_slowdown = 1.0;
        if (load.memDemandGBps > 1e-9) {
            mem_slowdown = outcome.missScale * load.memDemandGBps /
                           std::max(achieved, 1e-9);
        }
        const double mu = std::clamp(load.cpuFraction, 0.0, 1.0);
        outcome.slowdown =
            mu / node.cpuFactor + (1.0 - mu) * mem_slowdown;
        outcome.slowdown = std::max(1.0, outcome.slowdown);

        // 64 B cache lines: GB/s -> million events/s.
        const double accesses = load.llcAccessGBps * 1e9 / 64.0 / 1e6;
        pool.llcLoads += accesses;
        pool.llcMisses += accesses * (1.0 - outcome.hitRate);
    }
    for (std::size_t n = 0; n < n_nodes; ++n)
        result.nodes[n].localTrafficGBps =
            s.nodes[n].localAchieved + result.nodes[n].remoteTrafficGBps;

    // --- Pass 6: link queue accounting and cumulative totals. -----------
    for (std::size_t l = 0; l < n_links; ++l) {
        LinkTickStats &link = result.links[l];
        link.queuedGBps =
            std::max(0.0, link.offeredGBps - link.achievedGBps);
        link.flitsM = link.achievedGBps /
                      (topo.link(l).profile.flitBytes * 1e-9) / 1e6;
        totals[l].offeredGb += link.offeredGBps;
        totals[l].deliveredGb += link.achievedGBps;
        totals[l].queuedGb += link.queuedGBps;
        if (link.pressure > topo.link(l).profile.rampStart)
            ++totals[l].saturatedTicks;
    }

    // --- Pass 7: performance counters (Watcher events). -----------------
    // Unit conventions: cache events in millions of events/s; memory
    // counters in GB/s; flits in millions/s.  Node counters draw their
    // noise nodes ascending.
    for (std::size_t n = 0; n < n_nodes; ++n) {
        NodeTickStats &node = result.nodes[n];
        const TestbedParams &params = topo.node(n).local;
        const std::vector<std::size_t> &links = topo.linksFrom(n);
        const double mem_total = node.localTrafficGBps;

        double flits_m = 0.0;
        double carried = 0.0;
        for (std::size_t l : links) {
            flits_m += result.links[l].flitsM;
            carried += result.links[l].achievedGBps;
        }
        // Channel latency: the node's links weighted by what each
        // carried (one link's weight is c/c == 1 exactly); an idle node
        // reports its first link's latency, a node without links 0.
        double channel_lat = 0.0;
        if (carried > 0.0) {
            for (std::size_t l : links)
                channel_lat += result.links[l].latencyCycles *
                               (result.links[l].achievedGBps / carried);
        } else if (!links.empty()) {
            channel_lat = result.links[links.front()].latencyCycles;
        }

        CounterSample &counters = node.counters;
        counters[static_cast<std::size_t>(PerfEvent::LlcLoads)] =
            noisy(s.nodes[n].llcLoads);
        counters[static_cast<std::size_t>(PerfEvent::LlcMisses)] =
            noisy(s.nodes[n].llcMisses);
        counters[static_cast<std::size_t>(PerfEvent::MemLoads)] =
            noisy(mem_total * params.loadStoreSplit);
        counters[static_cast<std::size_t>(PerfEvent::MemStores)] =
            noisy(mem_total * (1.0 - params.loadStoreSplit));
        counters[static_cast<std::size_t>(PerfEvent::RemoteTx)] =
            noisy(flits_m * 0.45);
        counters[static_cast<std::size_t>(PerfEvent::RemoteRx)] =
            noisy(flits_m * 0.55);
        counters[static_cast<std::size_t>(PerfEvent::ChannelLat)] =
            noisy(channel_lat);
    }

    ++tickCount;

    // Conservation laws hold for every resolved tick (compiled out of
    // Release builds; the constant-false branch folds away).
    if (invariant::kEnabled)
        checkRackTickInvariants(loads, result, topo, linkBwScale);

#if ADRIAS_OBS_ENABLED
    if (obs::enabled())
        observe(result);
#endif
    return result;
}

double
RackTestbed::noisy(double value)
{
    if (noiseSigma <= 0.0)
        return value;
    return std::max(0.0, value * (1.0 + rng.gaussian(0.0, noiseSigma)));
}

void
RackTestbed::observe(const RackTickResult &result)
{
#if ADRIAS_OBS_ENABLED
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    // The registry hands out stable references; cache them so the
    // per-tick cost is atomic bumps, not name lookups.
    static obs::Counter &ticks = reg.counter("testbed.ticks");
    static obs::Gauge &pressure = reg.gauge("testbed.channel_pressure");
    static obs::Histogram &latency =
        reg.histogram("testbed.channel_latency_cycles");
    ticks.add();

    // The gauge holds the most pressured link; the histogram sees
    // every link's latency.  A link enters its back-pressure ramp when
    // its pressure crosses its profile's rampStart (observation R2).
    double peak = 0.0;
    for (std::size_t l = 0; l < result.links.size(); ++l) {
        const LinkTickStats &link = result.links[l];
        peak = std::max(peak, link.pressure);
        latency.observe(link.latencyCycles);
        const double ramp_start = topo.link(l).profile.rampStart;
        const bool pressured = link.pressure > ramp_start;
        if (pressured == (linkBackpressured[l] != 0))
            continue;
        linkBackpressured[l] = pressured ? 1 : 0;
        reg.counter("testbed.backpressure_transitions").add();
        if (obs::Tracer::global().enabled()) {
            obs::Tracer::global().simInstant(
                pressured ? "backpressure_on" : "backpressure_off",
                "testbed", static_cast<SimTime>(tickCount),
                {obs::arg("link", topo.link(l).name),
                 obs::arg("pressure", link.pressure),
                 obs::arg("ramp_start", ramp_start)});
        }
    }
    pressure.set(peak);
#else
    (void)result;
#endif
}

void
RackTestbed::saveState(io::BinaryWriter &out) const
{
    rng.saveState(out);
    out.writeF64(noiseSigma);
    out.writeF64Vector(linkBwScale);
    out.writeF64Vector(linkLatencyScale);
    out.writeF64Vector(allocated);
    out.writeU64(totals.size());
    for (std::size_t l = 0; l < totals.size(); ++l) {
        out.writeF64(totals[l].offeredGb);
        out.writeF64(totals[l].deliveredGb);
        out.writeF64(totals[l].queuedGb);
        out.writeI64(totals[l].saturatedTicks);
        out.writeBool(linkBackpressured[l] != 0);
    }
    out.writeI64(tickCount);
}

Result<void>
RackTestbed::restoreState(io::BinaryReader &in)
{
    rng.restoreState(in);
    noiseSigma = in.readF64();
    linkBwScale = in.readF64Vector();
    linkLatencyScale = in.readF64Vector();
    allocated = in.readF64Vector();
    const std::uint64_t n_totals = in.readU64();
    if (!in.ok() || n_totals != topo.linkCount())
        return makeError(ErrorCode::Geometry,
                         "RackTestbed: snapshot link-total count does not "
                         "match the topology");
    totals.assign(n_totals, LinkTotals{});
    linkBackpressured.assign(n_totals, 0);
    for (std::size_t l = 0; l < n_totals; ++l) {
        totals[l].offeredGb = in.readF64();
        totals[l].deliveredGb = in.readF64();
        totals[l].queuedGb = in.readF64();
        totals[l].saturatedTicks = in.readI64();
        linkBackpressured[l] = in.readBool() ? 1 : 0;
    }
    tickCount = in.readI64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "RackTestbed: truncated snapshot section");
    if (linkBwScale.size() != topo.linkCount() ||
        linkLatencyScale.size() != topo.linkCount() ||
        allocated.size() != topo.serverCount())
        return makeError(ErrorCode::Geometry,
                         "RackTestbed: snapshot geometry does not match "
                         "the topology");
    for (std::size_t l = 0; l < topo.linkCount(); ++l)
        if (!(linkBwScale[l] > 0.0 && linkBwScale[l] <= 1.0) ||
            linkLatencyScale[l] < 1.0)
            return makeError(ErrorCode::BadNumber,
                             "RackTestbed: snapshot carries invalid link "
                             "fault scales");
    for (std::size_t s = 0; s < topo.serverCount(); ++s)
        if (allocated[s] < 0.0 ||
            allocated[s] > topo.server(s).capacityGb + 1e-9)
            return makeError(ErrorCode::BadNumber,
                             "RackTestbed: snapshot allocation exceeds "
                             "server capacity");
    return {};
}

} // namespace adrias::testbed
