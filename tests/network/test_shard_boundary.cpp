/**
 * @file
 * Shard-boundary property tests for the parallel kernel. The sharding
 * contract (DESIGN.md "Parallel kernel") is that the cut points are
 * pure bookkeeping: for ANY strictly ascending set of interior cuts,
 * boundary-crossing wire events drain through the coordinator in the
 * sequential (node, port, wire-kind) order while each shard's worker
 * delivers its intra-shard events in the same per-shard order, so
 * every externally observable sequence — the per-destination
 * delivery-hook streams, occupancy, progress, the work counters — is
 * byte-identical to the single-shard active kernel and the scan
 * oracle. Deliveries eject on the destination's owning worker, so the
 * observable ordering contract is per destination node (a single
 * global stream across shards is not defined under worker delivery).
 * These tests build networks directly through
 * NetworkParams::shardBoundaries to drive randomized and adversarial
 * cuts the balanced partition would never produce, including slivers
 * that spend most cycles with no active component (the idle-shard
 * fast-forward path), and deep wires whose fault and telemetry
 * boundaries must land on exact cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "network/network.hpp"
#include "network/tracer.hpp"
#include "routing/algorithm_factory.hpp"
#include "tables/table_factory.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/mesh.hpp"
#include "traffic/injection.hpp"
#include "traffic/patterns.hpp"

namespace lapses
{
namespace
{

/** Optional NetRig knobs beyond the common (kernel, cuts, load, seed)
 *  set. */
struct RigOpts
{
    Cycle linkDelay = 1;
    Cycle telemetryWindow = 0;
    FaultSchedule faults;
    Cycle reconfigLatency = 40;
};

/** A directly constructed network plus everything it borrows, with a
 *  delivery-hook recorder attached. */
struct NetRig
{
    Topology topo;
    RoutingAlgorithmPtr algo;
    RoutingTablePtr table;
    TrafficPatternPtr pattern;
    std::unique_ptr<Network> net;
    /** Per-destination delivery streams: deliveries[d] holds node d's
     *  (message id, cycle) arrivals in ejection order. Node d ejects
     *  only on its shard's worker, so recording is race-free and the
     *  per-destination order is the canonical one. */
    std::vector<std::vector<std::pair<MessageId, Cycle>>> deliveries;

    NetRig(const std::vector<int>& radices, KernelKind kernel,
           std::vector<NodeId> boundaries, double load,
           std::uint64_t seed, RigOpts opts = {})
        : topo(makeMeshTopology(radices, false))
    {
        algo = makeRoutingAlgorithm(RoutingAlgo::DuatoFullyAdaptive,
                                    topo);
        table = makeRoutingTable(TableKind::Full, topo, *algo);
        pattern = makeTrafficPattern(TrafficKind::Uniform, topo);
        deliveries.resize(static_cast<std::size_t>(topo.numNodes()));

        NetworkParams np;
        np.router.vcsPerPort = 2;
        np.router.inBufDepth = 8;
        np.router.outBufDepth = 8;
        np.router.lookahead = true;
        np.router.escapeVcs = 1;
        np.nic.numVcs = 2;
        np.nic.routerBufDepth = 8;
        np.nic.msgLen = 4;
        np.nic.lookahead = true;
        np.nic.msgsPerCycle = msgRateForLoad(topo, load, np.nic.msgLen);
        np.seed = seed;
        np.kernel = kernel;
        np.intraJobs = 1; // overridden by explicit boundaries
        np.shardBoundaries = std::move(boundaries);
        np.linkDelay = opts.linkDelay;
        np.telemetryWindow = opts.telemetryWindow;
        if (!opts.faults.empty())
            opts.faults.validate(topo);
        np.faults = std::move(opts.faults);
        np.reconfigLatency = opts.reconfigLatency;
        net = std::make_unique<Network>(topo, np, *table,
                                        algo->usesEscapeChannels(),
                                        *pattern);
        net->setDeliveryHook(&NetRig::record, this);
    }

    static void
    record(void* ctx, const MessageDescriptor& msg, Cycle now)
    {
        auto* rig = static_cast<NetRig*>(ctx);
        rig->deliveries[msg.dest].emplace_back(msg.id, now);
    }

    std::size_t
    deliveredCount() const
    {
        std::size_t n = 0;
        for (const auto& stream : deliveries)
            n += stream.size();
        return n;
    }
};

/** Assert a's per-destination delivery streams equal b's element by
 *  element — same messages, same cycles, same order at each node. */
void
expectSameDeliveryStreams(const NetRig& a, const NetRig& b,
                          const std::string& name)
{
    ASSERT_EQ(a.deliveries.size(), b.deliveries.size()) << name;
    for (std::size_t d = 0; d < a.deliveries.size(); ++d) {
        ASSERT_EQ(a.deliveries[d].size(), b.deliveries[d].size())
            << name << " dest " << d;
        for (std::size_t i = 0; i < a.deliveries[d].size(); ++i) {
            ASSERT_EQ(a.deliveries[d][i], b.deliveries[d][i])
                << name << " dest " << d << " delivery " << i;
        }
    }
}

/** Random strictly ascending interior cut points for an n-node mesh. */
std::vector<NodeId>
randomCuts(std::mt19937& rng, NodeId n)
{
    std::uniform_int_distribution<int> count_dist(1, 7);
    const int want = count_dist(rng);
    std::vector<NodeId> all;
    for (NodeId b = 1; b < n; ++b)
        all.push_back(b);
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(std::min<std::size_t>(
        static_cast<std::size_t>(want), all.size()));
    std::sort(all.begin(), all.end());
    return all;
}

std::string
describeCuts(const std::vector<NodeId>& cuts)
{
    std::string s = "cuts{";
    for (const NodeId b : cuts)
        s += std::to_string(b) + ',';
    s += '}';
    return s;
}

TEST(ShardBoundary, RandomizedCutsMatchSequentialDeliveryOrder)
{
    // Property: for randomized shard cuts on a 5x5 mesh, the parallel
    // kernel's per-destination delivery streams and per-cycle counters
    // equal the scan oracle's. Scan delivers wires by one global
    // ascending (node, port, wire-kind) sweep, so equality here IS the
    // two-tier (boundary + intra-shard) ordering contract.
    std::mt19937 rng(0xC0FFEEu);
    const std::vector<int> radices = {5, 5};
    for (int trial = 0; trial < 8; ++trial) {
        const std::vector<NodeId> cuts = randomCuts(rng, 25);
        const std::string name =
            "trial " + std::to_string(trial) + ' ' + describeCuts(cuts);

        NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 777);
        NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 777);
        ASSERT_EQ(sharded.net->shardCount(), cuts.size() + 1) << name;

        for (Cycle t = 0; t < 600; ++t) {
            oracle.net->step();
            sharded.net->stepUntil(oracle.net->now());
            ASSERT_EQ(sharded.net->now(), oracle.net->now()) << name;
            ASSERT_EQ(sharded.net->totalOccupancy(),
                      oracle.net->totalOccupancy())
                << name << " at cycle " << t;
            ASSERT_EQ(sharded.net->progressCounter(),
                      oracle.net->progressCounter())
                << name << " at cycle " << t;
            ASSERT_EQ(sharded.net->totalOccupancy(),
                      sharded.net->totalOccupancySlow())
                << name << " merge drift at cycle " << t;
        }
        expectSameDeliveryStreams(sharded, oracle, name);
        EXPECT_GT(oracle.deliveredCount(), 0u) << name;
    }
}

TEST(ShardBoundary, MidWordCutsMatchScanOracle)
{
    // Cuts at nodes 5, 27 and 40 of an 8x8 mesh: with 16 wire keys per
    // node, the shards starting at 5 and 27 begin inside a 64-bit word
    // of the key space (keys 80 and 432), and the shards' calendar
    // bitsets hold 1.25, 5.5, 3.25 and 6 words. Per-cycle counters —
    // wire events included — and the delivery streams must equal the
    // scan oracle's.
    const std::vector<int> radices = {8, 8};
    const std::vector<NodeId> cuts = {5, 27, 40};
    NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 6161);
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 6161);
    ASSERT_EQ(sharded.net->shardCount(), 4u);
    for (Cycle t = 0; t < 800; ++t) {
        oracle.net->step();
        sharded.net->stepUntil(oracle.net->now());
        ASSERT_EQ(sharded.net->now(), oracle.net->now());
        ASSERT_EQ(sharded.net->totalOccupancy(),
                  oracle.net->totalOccupancy())
            << " at cycle " << t;
        ASSERT_EQ(sharded.net->progressCounter(),
                  oracle.net->progressCounter())
            << " at cycle " << t;
        ASSERT_EQ(sharded.net->kernelCounters().wireEventsDelivered,
                  oracle.net->kernelCounters().wireEventsDelivered)
            << " at cycle " << t;
    }
    expectSameDeliveryStreams(sharded, oracle, "mid-word cuts");
    EXPECT_GT(oracle.deliveredCount(), 0u);
}

TEST(ShardBoundary, AdversarialSliverCutsStayLockstep)
{
    // Three 1-node shards carved off the corner plus the 13-node rest:
    // the slivers spend most low-load cycles with no active component,
    // so the coordinator constantly crosses idle shards while others
    // work. Everything must still match the scan oracle exactly.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {1, 2, 3};
    NetRig oracle(radices, KernelKind::Scan, {}, 0.05, 4242);
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.05, 4242);
    ASSERT_EQ(sharded.net->shardCount(), 4u);

    for (Cycle t = 0; t < 2000; ++t) {
        oracle.net->step();
        sharded.net->stepUntil(oracle.net->now());
        ASSERT_EQ(sharded.net->now(), oracle.net->now());
        ASSERT_EQ(sharded.net->totalOccupancy(),
                  oracle.net->totalOccupancy())
            << " at cycle " << t;
        ASSERT_EQ(sharded.net->progressCounter(),
                  oracle.net->progressCounter())
            << " at cycle " << t;
    }
    expectSameDeliveryStreams(sharded, oracle, "sliver cuts");
}

TEST(ShardBoundary, IdleShardsFastForwardLikeActive)
{
    // Cut injection, drain, and step a long span: a fully idle sharded
    // network must fast-forward exactly as the active kernel does —
    // same clock, same fast-forward count, no component work at all.
    auto drain = [](NetRig& rig) {
        for (Cycle t = 0; t < 400; ++t)
            rig.net->step();
        rig.net->setInjectionEnabled(false);
        Cycle waited = 0;
        while ((rig.net->totalOccupancy() > 0 ||
                rig.net->totalBacklog() > 0) &&
               waited < 20000) {
            rig.net->stepUntil(rig.net->now() + 100);
            ++waited;
        }
        ASSERT_EQ(rig.net->totalOccupancy(), 0u) << "drain hung";
    };
    const std::vector<int> radices = {4, 4};
    NetRig active(radices, KernelKind::Active, {}, 0.2, 99);
    NetRig sharded(radices, KernelKind::Parallel, {5, 9}, 0.2, 99);
    drain(active);
    drain(sharded);
    ASSERT_EQ(sharded.net->now(), active.net->now());
    expectSameDeliveryStreams(sharded, active, "idle shards");

    const Network::KernelCounters a0 = active.net->kernelCounters();
    const Network::KernelCounters p0 = sharded.net->kernelCounters();
    const Cycle horizon = active.net->now() + 50000;
    while (active.net->now() < horizon) {
        active.net->stepUntil(horizon);
        sharded.net->stepUntil(horizon);
        ASSERT_EQ(sharded.net->now(), active.net->now());
    }
    const Network::KernelCounters a1 = active.net->kernelCounters();
    const Network::KernelCounters p1 = sharded.net->kernelCounters();
    // The drained span is crossed by fast-forward, not stepping: no
    // router work on either kernel, identical skip counts.
    EXPECT_EQ(a1.routerSteps, a0.routerSteps);
    EXPECT_EQ(p1.routerSteps, p0.routerSteps);
    EXPECT_EQ(p1.fastForwardedCycles - p0.fastForwardedCycles,
              a1.fastForwardedCycles - a0.fastForwardedCycles);
    EXPECT_GT(p1.fastForwardedCycles, p0.fastForwardedCycles);
}

TEST(ShardBoundary, DeepWiresMatchScanOracle)
{
    // linkDelay 3 keeps four cycles of events in flight on every wire,
    // spread over four calendar slots per shard. The sharded run must
    // reproduce the scan oracle exactly at every 8-cycle checkpoint.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {4, 8, 12};
    RigOpts opts;
    opts.linkDelay = 3;
    NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 777, opts);
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 777, opts);

    for (Cycle cp = 8; cp <= 800; cp += 8) {
        while (oracle.net->now() < cp)
            oracle.net->stepUntil(cp);
        while (sharded.net->now() < cp)
            sharded.net->stepUntil(cp);
        ASSERT_EQ(sharded.net->now(), oracle.net->now());
        ASSERT_EQ(sharded.net->totalOccupancy(),
                  oracle.net->totalOccupancy())
            << "at cycle " << cp;
        ASSERT_EQ(sharded.net->progressCounter(),
                  oracle.net->progressCounter())
            << "at cycle " << cp;
        ASSERT_EQ(sharded.net->totalOccupancy(),
                  sharded.net->totalOccupancySlow())
            << "merge drift at cycle " << cp;
    }
    expectSameDeliveryStreams(sharded, oracle, "deep wires");
    EXPECT_GT(oracle.deliveredCount(), 0u);
}

TEST(ShardBoundary, FaultsForceBarriersAtExactCycles)
{
    // A link down at cycle 402 and its repair at 450 on deep wires,
    // neither on an 8-cycle checkpoint. The kernel must stop at
    // exactly those cycles (the idle fast-forward never jumps over a
    // fault event or a reconfiguration) and keep the whole faulted run
    // byte-identical to the scan oracle.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {4, 8, 12};
    RigOpts opts;
    opts.linkDelay = 3;
    opts.faults.addDown(402, 5, 1);
    opts.faults.addUp(450, 5, 1);
    opts.reconfigLatency = 37; // reconfig at 439 / 487
    NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 90210, opts);
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 90210,
                   opts);

    std::vector<Cycle> barriers;
    for (Cycle cp = 8; cp <= 800; cp += 8) {
        while (oracle.net->now() < cp)
            oracle.net->stepUntil(cp);
        while (sharded.net->now() < cp) {
            sharded.net->stepUntil(cp);
            barriers.push_back(sharded.net->now());
        }
        ASSERT_EQ(sharded.net->totalOccupancy(),
                  oracle.net->totalOccupancy())
            << "at cycle " << cp;
        ASSERT_EQ(sharded.net->progressCounter(),
                  oracle.net->progressCounter())
            << "at cycle " << cp;
    }
    // The stepping sequence paused exactly at both fault events and
    // both reconfiguration sweeps — no step crossed them.
    for (const Cycle must_stop : {Cycle{402}, Cycle{439}, Cycle{450},
                                  Cycle{487}}) {
        EXPECT_TRUE(std::find(barriers.begin(), barriers.end(),
                              must_stop) != barriers.end())
            << "no barrier at cycle " << must_stop;
    }
    ASSERT_EQ(sharded.net->faultCounters().linkDownEvents, 1u);
    ASSERT_EQ(sharded.net->faultCounters().linkUpEvents, 1u);
    expectSameDeliveryStreams(sharded, oracle, "faults");
}

TEST(ShardBoundary, TelemetryWindowsStayByteIdentical)
{
    // A 6-cycle telemetry window on deep wires never aligns with the
    // 4-cycle wire depth or the 8-cycle checkpoints. The JSONL
    // telemetry streams must come out byte-for-byte equal to the scan
    // oracle's — same windows, same per-node counters, same idle
    // splits.
    const std::vector<int> radices = {4, 4};
    const std::vector<NodeId> cuts = {4, 8, 12};
    RigOpts opts;
    opts.linkDelay = 3;
    opts.telemetryWindow = 6;
    NetRig oracle(radices, KernelKind::Scan, {}, 0.3, 5150, opts);
    NetRig sharded(radices, KernelKind::Parallel, cuts, 0.3, 5150,
                   opts);
    TelemetryBuffer oracle_buf(oracle.topo.numNodes(),
                               oracle.topo.numPorts());
    TelemetryBuffer sharded_buf(sharded.topo.numNodes(),
                                sharded.topo.numPorts());
    oracle.net->attachTelemetryBuffer(&oracle_buf);
    sharded.net->attachTelemetryBuffer(&sharded_buf);

    for (Cycle cp = 8; cp <= 600; cp += 8) {
        while (oracle.net->now() < cp)
            oracle.net->stepUntil(cp);
        while (sharded.net->now() < cp)
            sharded.net->stepUntil(cp);
    }
    ASSERT_EQ(sharded_buf.windows(), oracle_buf.windows());
    ASSERT_GT(sharded_buf.windows(), 0u);
    std::ostringstream oracle_jsonl;
    std::ostringstream sharded_jsonl;
    oracle_buf.writeJsonl(oracle_jsonl);
    sharded_buf.writeJsonl(sharded_jsonl);
    EXPECT_EQ(sharded_jsonl.str(), oracle_jsonl.str());
    expectSameDeliveryStreams(sharded, oracle, "telemetry");
}

/** What a traced run leaves behind: the span JSONL stream, and the
 *  ring's events sorted into a canonical order (within one cycle a
 *  sharded run records boundary arrivals before intra-shard ones). */
struct TracedRun
{
    std::string spans;
    std::vector<std::tuple<Cycle, int, NodeId, PortId, MessageId,
                           std::uint16_t, int>>
        events;
    std::uint64_t recorded = 0;
};

TracedRun
runTraced(KernelKind kernel, std::vector<NodeId> cuts, Cycle link_delay)
{
    RigOpts opts;
    opts.linkDelay = link_delay;
    const std::size_t shards = cuts.size() + 1;
    NetRig rig({4, 4}, kernel, std::move(cuts), 0.3, 2024, opts);
    EXPECT_EQ(rig.net->shardCount(), shards);
    std::ostringstream spans; // outlives the tracer that writes it
    FlitTracer tracer(std::size_t{1} << 17);
    tracer.enableSpanExport(spans, 1, 5);
    rig.net->setTracer(&tracer);
    while (rig.net->now() < 1200)
        rig.net->stepUntil(1200);
    rig.net->setTracer(nullptr);

    TracedRun run;
    run.spans = spans.str();
    run.recorded = tracer.recorded();
    // The ring must hold the whole run, or the retained window would
    // depend on the within-cycle order.
    EXPECT_EQ(tracer.size(), run.recorded);
    for (const TraceEvent& ev : tracer.events()) {
        run.events.emplace_back(ev.cycle, static_cast<int>(ev.kind),
                                ev.node, ev.port, ev.msg, ev.seq,
                                static_cast<int>(ev.type));
    }
    std::sort(run.events.begin(), run.events.end());
    return run;
}

void
expectSameTrace(const TracedRun& run, const TracedRun& oracle,
                const std::string& name)
{
    EXPECT_EQ(run.spans, oracle.spans) << name;
    EXPECT_EQ(run.recorded, oracle.recorded) << name;
    EXPECT_TRUE(run.events == oracle.events) << name;
}

TEST(ShardBoundary, TracedRunsEmitIdenticalSpans)
{
    // A traced network steps its shards in turn on the calling thread
    // through the same boundary and intra drains as an untraced run.
    // Its span stream must come out byte-identical to the scan
    // oracle's, on unit and on deep wires, and its ring must hold the
    // same events.
    const std::vector<NodeId> four = {4, 8, 12};
    const TracedRun oracle = runTraced(KernelKind::Scan, {}, 1);
    ASSERT_FALSE(oracle.spans.empty());
    expectSameTrace(runTraced(KernelKind::Active, {}, 1), oracle,
                    "active");
    expectSameTrace(runTraced(KernelKind::Parallel, four, 1), oracle,
                    "parallel/4");
    const TracedRun deep = runTraced(KernelKind::Scan, {}, 3);
    ASSERT_FALSE(deep.spans.empty());
    expectSameTrace(runTraced(KernelKind::Parallel, four, 3), deep,
                    "parallel/4 linkDelay 3");
}

TEST(ShardBoundary, InvalidBoundariesRefuse)
{
    const std::vector<int> radices = {4, 4};
    auto build = [&](std::vector<NodeId> cuts) {
        NetRig rig(radices, KernelKind::Parallel, std::move(cuts),
                   0.1, 1);
    };
    EXPECT_THROW(build({0}), ConfigError);        // not interior
    EXPECT_THROW(build({16}), ConfigError);       // past the edge
    EXPECT_THROW(build({4, 4}), ConfigError);     // duplicate
    EXPECT_THROW(build({9, 3}), ConfigError);     // not ascending
    EXPECT_NO_THROW(build({1, 15}));              // extremes are legal
}

TEST(ShardBoundary, ParallelSaturationSoakCountersExactEveryBarrier)
{
    // Soak at saturating load with the balanced 4-shard cut: every
    // cycle barrier must leave the O(1) occupancy and progress
    // counters exactly equal to their recomputed sums. Any lost or
    // double-merged per-shard delta (the classic parallel-reduction
    // bug) trips within one cycle of happening.
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 1.5;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 5000;
    cfg.seed = 31337;
    cfg.kernel = KernelKind::Parallel;
    cfg.intraJobs = 4;
    Simulation sim(cfg);
    ASSERT_EQ(sim.network().shardCount(), 4u);
    for (Cycle t = 0; t < 3000; ++t) {
        sim.stepCycles(1);
        ASSERT_EQ(sim.network().totalOccupancy(),
                  sim.network().totalOccupancySlow())
            << "occupancy merge drift at cycle " << t;
        ASSERT_EQ(sim.network().progressCounter(),
                  sim.network().progressCounterSlow())
            << "progress merge drift at cycle " << t;
    }
    // The soak genuinely saturated the network (the regime under
    // test), with every shard holding work.
    EXPECT_GT(sim.network().totalOccupancy(),
              static_cast<std::size_t>(cfg.radices[0]));
}

} // namespace
} // namespace lapses
