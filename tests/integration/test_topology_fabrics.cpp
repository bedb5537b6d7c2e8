/**
 * @file
 * Integration tests for the non-mesh fabrics: fat-tree and dragonfly
 * runs must be byte-identical across the scan, active and parallel
 * kernels (at several intra-job counts) and across campaign shard
 * splits of a topology grid axis; and on an irregular file-defined
 * graph every table scheme must program, route, and reprogram around
 * live link faults under up*-down* routing.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "exp/campaign.hpp"
#include "topology/spec.hpp"

namespace lapses
{
namespace
{

/** One kernel under differential test. */
struct KernelVariant
{
    std::string label;
    KernelKind kernel;
    unsigned intraJobs; //!< 0 outside the parallel kernel
};

/** Scan as the oracle, active as the default, and the parallel kernel
 *  at 1, 2 and 4 shards — on irregular node counts the cuts are
 *  uneven, which is exactly what must not show in the results. */
std::vector<KernelVariant>
kernelPanel()
{
    return {{"scan", KernelKind::Scan, 0},
            {"active", KernelKind::Active, 0},
            {"parallel/1", KernelKind::Parallel, 1},
            {"parallel/2", KernelKind::Parallel, 2},
            {"parallel/4", KernelKind::Parallel, 4}};
}

/** Small, fast, unsaturated base on the given fabric. */
SimConfig
fabricBase(const std::string& topo_token, double load)
{
    SimConfig cfg;
    cfg.topology = parseTopologySpec("--topology", topo_token);
    cfg.msgLen = 4;
    cfg.normalizedLoad = load;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 400;
    cfg.seed = 20260807;
    return cfg;
}

/** Every field of SimStats, compared exactly (byte identity). */
void
expectStatsIdentical(const SimStats& ref, const SimStats& other,
                     const std::string& name)
{
    EXPECT_EQ(ref.saturated, other.saturated) << name;
    EXPECT_EQ(ref.injectedMessages, other.injectedMessages) << name;
    EXPECT_EQ(ref.deliveredMessages, other.deliveredMessages) << name;
    EXPECT_EQ(ref.deliveredFlits, other.deliveredFlits) << name;
    EXPECT_EQ(ref.measuredCycles, other.measuredCycles) << name;
    EXPECT_EQ(ref.acceptedFlitRate, other.acceptedFlitRate) << name;
    EXPECT_EQ(ref.offeredFlitRate, other.offeredFlitRate) << name;
    EXPECT_EQ(ref.linkDownEvents, other.linkDownEvents) << name;
    EXPECT_EQ(ref.linkUpEvents, other.linkUpEvents) << name;
    EXPECT_EQ(ref.reconfigurations, other.reconfigurations) << name;
    EXPECT_EQ(ref.droppedMessages, other.droppedMessages) << name;
    EXPECT_EQ(ref.droppedFlits, other.droppedFlits) << name;
    EXPECT_EQ(ref.reinjectedMessages, other.reinjectedMessages)
        << name;
    EXPECT_EQ(ref.reroutedHeads, other.reroutedHeads) << name;
    for (const auto& [label, s, a] :
         {std::tuple<const char*, const Accumulator&,
                     const Accumulator&>{
              "totalLatency", ref.totalLatency, other.totalLatency},
          {"networkLatency", ref.networkLatency,
           other.networkLatency},
          {"hops", ref.hops, other.hops}}) {
        EXPECT_EQ(s.count(), a.count()) << name << ' ' << label;
        EXPECT_EQ(s.mean(), a.mean()) << name << ' ' << label;
        EXPECT_EQ(s.min(), a.min()) << name << ' ' << label;
        EXPECT_EQ(s.max(), a.max()) << name << ' ' << label;
        EXPECT_EQ(s.sum(), a.sum()) << name << ' ' << label;
    }
    for (double q : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(ref.latencyHist.percentile(q),
                  other.latencyHist.percentile(q))
            << name << " p" << q;
    }
}

/** Run the base config under every kernel variant and require
 *  byte-identical final statistics and whole-run clocks. */
void
expectKernelsAgree(const SimConfig& base, const std::string& name)
{
    const auto variants = kernelPanel();
    std::vector<std::unique_ptr<Simulation>> sims;
    std::vector<SimStats> stats;
    for (const KernelVariant& v : variants) {
        SimConfig cfg = base;
        cfg.kernel = v.kernel;
        cfg.intraJobs = v.intraJobs;
        sims.push_back(std::make_unique<Simulation>(cfg));
        ASSERT_EQ(sims.back()->network().kernel(), v.kernel)
            << name << ' ' << v.label;
        stats.push_back(sims.back()->run());
    }
    EXPECT_FALSE(stats[0].saturated) << name;
    EXPECT_GT(stats[0].deliveredMessages, 0u) << name;
    for (std::size_t i = 1; i < stats.size(); ++i) {
        expectStatsIdentical(stats[0], stats[i],
                             name + " vs " + variants[i].label);
        EXPECT_EQ(sims[0]->network().now(), sims[i]->network().now())
            << name << ' ' << variants[i].label;
        EXPECT_EQ(sims[0]->network().progressCounter(),
                  sims[i]->network().progressCounter())
            << name << ' ' << variants[i].label;
    }
}

TEST(TopologyFabrics, FatTreeByteIdenticalAcrossKernels)
{
    // 4-ary 2-tree: 16 hosts under 8 switches, 24 nodes — the
    // parallel kernel's 4-way split cuts hosts and switches unevenly.
    expectKernelsAgree(fabricBase("fattree4x2", 0.1), "fattree4x2");
}

TEST(TopologyFabrics, DragonflyByteIdenticalAcrossKernels)
{
    // 72 routers in 12 groups; up*-down* concentrates load at the
    // tree root, so stay well below that knee.
    expectKernelsAgree(fabricBase("dragonfly6x2x12", 0.02),
                       "dragonfly6x2x12");
}

TEST(TopologyFabrics, FatTreeWithFaultsAcrossKernels)
{
    // Live fault epochs on a fat-tree: a random link dies mid-run,
    // traffic reinjects, tables reprogram — still byte-identical.
    SimConfig base = fabricBase("fattree4x2", 0.1);
    base.faultCount = 1;
    base.faultStart = 300;
    base.reconfigLatency = 100;
    expectKernelsAgree(base, "fattree4x2:faulted");
}

TEST(TopologyFabrics, TopologyAxisShardSplitByteIdentical)
{
    // A topology-axis grid split over two shards must reproduce the
    // unsharded campaign's per-run statistics exactly.
    CampaignGrid grid;
    grid.base = fabricBase("mesh", 0.02);
    grid.base.radices = {4, 4};
    grid.axes.topologies = {
        parseTopologySpec("topology", "mesh"),
        parseTopologySpec("topology", "fattree4x2")};
    grid.axes.loads = {0.02, 0.04};
    const std::vector<CampaignRun> runs = grid.expand();
    ASSERT_EQ(runs.size(), 4u);

    CampaignOptions whole;
    whole.jobs = 2;
    const std::vector<RunResult> full = runCampaign(runs, whole);

    std::vector<int> covered(runs.size(), 0);
    for (std::size_t shard = 0; shard < 2; ++shard) {
        CampaignOptions opts;
        opts.jobs = 1;
        opts.shard = ShardSpec{shard, 2, 1};
        const std::vector<RunResult> part = runCampaign(runs, opts);
        ASSERT_EQ(part.size(), full.size());
        for (std::size_t i = 0; i < part.size(); ++i) {
            if (!part[i].executed)
                continue;
            ++covered[i];
            expectStatsIdentical(full[i].stats, part[i].stats,
                                 "shard " + opts.shard.str() +
                                     " run " + std::to_string(i));
        }
    }
    // The two shards partition the grid: every run exactly once.
    for (std::size_t i = 0; i < covered.size(); ++i)
        EXPECT_EQ(covered[i], 1) << "run " << i;
}

/** The irregular test fabric: a 6-ring with two spurs and a chord.
 *  The chord (1:3 <-> 4:3) is redundant, so failing it never cuts the
 *  graph. The file is named after the calling test and the process id:
 *  `ctest -j` runs each test in its own process, and a shared name
 *  would let one test truncate the file while another reads it. */
std::string
writeIrregularTopo()
{
    const std::string path =
        ::testing::TempDir() + "lapses_irregular_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        '_' + std::to_string(::getpid()) + ".topo";
    std::ofstream os(path);
    os << "nodes 10\n"
          "ports 5\n"
          "link 0:1 1:2\n"
          "link 1:1 2:2\n"
          "link 2:1 3:2\n"
          "link 3:1 4:2\n"
          "link 4:1 5:2\n"
          "link 5:1 0:2\n"
          "link 0:3 6:1\n"
          "link 6:2 7:1\n"
          "link 3:3 8:1\n"
          "link 8:2 9:1\n"
          "link 1:3 4:3\n";
    os.close();
    return path;
}

TEST(TopologyFabrics, AllTableKindsRouteAndReprogramOnIrregularGraph)
{
    // Every table scheme, programmed over up*-down* routing on the
    // file-defined graph, must carry traffic through a chord failure
    // and its repair: the link dies at cycle 300, tables reprogram
    // after the reconfiguration window, and the link comes back at
    // cycle 900.
    const std::string path = writeIrregularTopo();
    for (TableKind table :
         {TableKind::Full, TableKind::MetaRowMinimal,
          TableKind::MetaBlockMaximal, TableKind::EconomicalStorage,
          TableKind::Interval}) {
        for (RoutingAlgo routing :
             {RoutingAlgo::UpDown, RoutingAlgo::UpDownAdaptive}) {
            if (table == TableKind::Interval &&
                routing == RoutingAlgo::UpDownAdaptive)
                continue; // interval is deterministic-only
            SimConfig cfg = fabricBase("file:" + path, 0.1);
            cfg.table = table;
            cfg.routing = routing;
            cfg.faultEvents = {
                FaultEvent{300, 1, 3, true},   // chord down
                FaultEvent{900, 1, 3, false}}; // chord repaired
            cfg.reconfigLatency = 100;
            const std::string name = "irregular:" +
                                     tableKindName(table) + '+' +
                                     routingAlgoName(routing);

            Simulation sim(cfg);
            const SimStats stats = sim.run();
            EXPECT_FALSE(stats.saturated) << name;
            EXPECT_GT(stats.deliveredMessages, 0u) << name;
            EXPECT_EQ(stats.linkDownEvents, 1u) << name;
            EXPECT_EQ(stats.linkUpEvents, 1u) << name;
            EXPECT_GE(stats.reconfigurations, 1u) << name;
        }
    }
    std::remove(path.c_str());
}

TEST(TopologyFabrics, IrregularFaultedRunByteIdenticalAcrossKernels)
{
    // The same chord-failure scenario must not depend on the kernel:
    // fault application, reconfiguration and reinjection all land on
    // the same cycles in every kernel, shards included.
    const std::string path = writeIrregularTopo();
    SimConfig base = fabricBase("file:" + path, 0.1);
    base.faultEvents = {FaultEvent{300, 1, 3, true},
                        FaultEvent{900, 1, 3, false}};
    base.reconfigLatency = 100;
    expectKernelsAgree(base, "irregular:faulted");
    std::remove(path.c_str());
}

} // namespace
} // namespace lapses
