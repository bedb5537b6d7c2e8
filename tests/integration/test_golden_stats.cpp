/**
 * @file
 * Golden-stats regression tests: seeded end-to-end results pinned for
 * one representative configuration per entry in the simulator's
 * catalog — both router models, every routing algorithm, every table
 * scheme, every path selector. A refactor that shifts any of these
 * numbers (event ordering, RNG consumption, arbitration ties, stat
 * accounting) fails here instead of silently bending the paper's
 * figures.
 *
 * The pins are exact products of the deterministic simulation, not
 * physics: when a change *intentionally* alters results (and the new
 * values are vetted against the paper's shapes), regenerate the table
 * with
 *
 *   LAPSES_GOLDEN_REGEN=1 ./lapses_tests \
 *       --gtest_filter='GoldenStats.*'
 *
 * and paste the printed rows over kGolden and kBlockedGolden below.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

/** The shared scenario: small, fast, unsaturated, fixed seed. */
SimConfig
goldenBase()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.2;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 400;
    cfg.seed = 20260727;
    return cfg;
}

/** One named configuration per catalog entry, in pinned order. */
std::vector<std::pair<std::string, SimConfig>>
goldenCases()
{
    std::vector<std::pair<std::string, SimConfig>> cases;
    auto add = [&](const std::string& name, SimConfig cfg) {
        cases.emplace_back(name, std::move(cfg));
    };

    for (RouterModel model :
         {RouterModel::Proud, RouterModel::LaProud}) {
        SimConfig cfg = goldenBase();
        cfg.model = model;
        add("model:" + routerModelName(model), cfg);
    }

    for (RoutingAlgo routing :
         {RoutingAlgo::DeterministicXY, RoutingAlgo::DeterministicYX,
          RoutingAlgo::DuatoFullyAdaptive, RoutingAlgo::NorthLast,
          RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst,
          RoutingAlgo::TorusAdaptive}) {
        SimConfig cfg = goldenBase();
        cfg.routing = routing;
        if (routing == RoutingAlgo::TorusAdaptive) {
            cfg.torus = true;
            cfg.table = TableKind::Full; // economical is mesh-only
        }
        add("routing:" + routingAlgoName(routing), cfg);
    }

    for (TableKind table :
         {TableKind::Full, TableKind::MetaRowMinimal,
          TableKind::MetaBlockMaximal, TableKind::EconomicalStorage,
          TableKind::Interval}) {
        SimConfig cfg = goldenBase();
        cfg.table = table;
        if (table == TableKind::Interval) // deterministic-only scheme
            cfg.routing = RoutingAlgo::DeterministicXY;
        add("table:" + tableKindName(table), cfg);
    }

    for (SelectorKind selector :
         {SelectorKind::StaticXY, SelectorKind::FirstFree,
          SelectorKind::Random, SelectorKind::MinMux,
          SelectorKind::Lfu, SelectorKind::Lru,
          SelectorKind::MaxCredit}) {
        SimConfig cfg = goldenBase();
        cfg.selector = selector;
        add("selector:" + selectorKindName(selector), cfg);
    }
    return cases;
}

struct GoldenRow
{
    const char* name;
    std::uint64_t delivered;
    double latency;  //!< mean total latency, cycles
    double accepted; //!< accepted flits/node/cycle
};

// LAPSES_GOLDEN_REGEN=1 prints this table fresh (see file header).
const GoldenRow kGolden[] = {
    {"model:proud", 406, 28.2488, 0.200481},
    {"model:la-proud", 406, 25.33, 0.2},
    {"routing:xy", 406, 25.3325, 0.2},
    {"routing:yx", 406, 25.3744, 0.199519},
    {"routing:duato", 406, 25.33, 0.2},
    {"routing:north-last", 406, 25.3325, 0.2},
    {"routing:west-first", 406, 25.3325, 0.2},
    {"routing:negative-first", 406, 25.6576, 0.2},
    {"routing:torus-adaptive", 413, 25.6998, 0.40625},
    {"table:full-table", 406, 25.33, 0.2},
    {"table:meta-row", 406, 25.3916, 0.199519},
    {"table:meta-block", 406, 25.33, 0.2},
    {"table:economical-storage", 406, 25.33, 0.2},
    {"table:interval", 406, 25.3325, 0.2},
    {"selector:static-xy", 406, 25.33, 0.2},
    {"selector:first-free", 406, 25.33, 0.2},
    {"selector:random", 406, 25.7635, 0.200962},
    {"selector:min-mux", 406, 25.4138, 0.2},
    {"selector:lfu", 406, 25.7266, 0.200481},
    {"selector:lru", 406, 25.6404, 0.200481},
    {"selector:max-credit", 406, 25.6527, 0.200481},
};

TEST(GoldenStats, PinnedPerCatalogEntry)
{
    const auto cases = goldenCases();
    const bool regen =
        std::getenv("LAPSES_GOLDEN_REGEN") != nullptr;
    if (!regen) {
        ASSERT_EQ(std::size(kGolden), cases.size())
            << "catalog changed; regenerate the golden table";
    }

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& [name, cfg] = cases[i];
        ASSERT_NO_THROW(cfg.validate()) << name;
        Simulation sim(cfg);
        const SimStats stats = sim.run();

        if (regen) {
            std::printf("    {\"%s\", %llu, %.6g, %.6g},\n",
                        name.c_str(),
                        static_cast<unsigned long long>(
                            stats.deliveredMessages),
                        stats.meanLatency(), stats.acceptedFlitRate);
            continue;
        }

        const GoldenRow& want = kGolden[i];
        EXPECT_EQ(name, want.name) << "catalog order changed";
        EXPECT_FALSE(stats.saturated) << name;
        EXPECT_EQ(stats.deliveredMessages, want.delivered) << name;
        EXPECT_NEAR(stats.meanLatency(), want.latency,
                    1e-4 * want.latency)
            << name;
        EXPECT_NEAR(stats.acceptedFlitRate, want.accepted,
                    1e-4 * want.accepted)
            << name;
    }
}

/**
 * The blocked regime: 8x8 runs where most headers spend most cycles
 * with every candidate VC taken — the meta-tables' two-phase escape
 * near and past saturation, and closed-loop request/reply traffic
 * with max-credit selection through two link faults and their
 * reconfigurations. The catalog rows above never block for long, so
 * a change to how blocked headers are re-arbitrated is pinned here.
 */
std::vector<std::pair<std::string, SimConfig>>
blockedCases()
{
    std::vector<std::pair<std::string, SimConfig>> cases;
    SimConfig base;
    base.radices = {8, 8};
    base.warmupMessages = 300;
    base.measureMessages = 3000;
    base.seed = 11;

    SimConfig cfg = base;
    cfg.table = TableKind::MetaBlockMaximal;
    cfg.normalizedLoad = 0.6;
    cases.emplace_back("meta-block@0.6", cfg);
    cfg.normalizedLoad = 0.8;
    cases.emplace_back("meta-block@0.8", cfg);
    cfg.table = TableKind::MetaRowMinimal;
    cfg.normalizedLoad = 1.0;
    cases.emplace_back("meta-row@1.0", cfg);

    cfg = base;
    cfg.workload = WorkloadKind::RequestReply;
    cfg.table = TableKind::Full; // reprogrammed at reconfiguration
    cfg.selector = SelectorKind::MaxCredit;
    cfg.faultCount = 2;
    cfg.faultStart = 500;
    cfg.faultSpacing = 300;
    cfg.warmupMessages = 200;
    cfg.measureMessages = 1500;
    cfg.seed = 3;
    cases.emplace_back("request-reply:max-credit+2faults", cfg);
    return cases;
}

struct BlockedRow
{
    const char* name;
    bool saturated;
    std::uint64_t delivered;
    std::uint64_t measuredCycles;
    double latency;  //!< mean total latency, cycles
    double accepted; //!< accepted flits/node/cycle
    std::uint64_t requestsCompleted;
    std::uint64_t requestRetries;
    std::uint64_t droppedMessages;
    std::uint64_t reroutedHeads;
};

// LAPSES_GOLDEN_REGEN=1 prints this table fresh (see file header).
const BlockedRow kBlockedGolden[] = {
    {"meta-block@0.6", false, 3008, 3104, 131.225731, 0.295687017, 0, 0, 0, 0},
    {"meta-block@0.8", true, 2762, 0, 385.860608, 0, 0, 0, 0, 0},
    {"meta-row@1.0", true, 2917, 0, 413.957491, 0, 0, 0, 0, 0},
    {"request-reply:max-credit+2faults", false, 3000, 4256, 151.397,
     0.219322721, 1500, 0, 0, 31},
};

TEST(GoldenStats, PinnedBlockedRegime)
{
    const auto cases = blockedCases();
    const bool regen =
        std::getenv("LAPSES_GOLDEN_REGEN") != nullptr;
    if (!regen) {
        ASSERT_EQ(std::size(kBlockedGolden), cases.size())
            << "cases changed; regenerate the golden table";
    }

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& [name, cfg] = cases[i];
        ASSERT_NO_THROW(cfg.validate()) << name;
        Simulation sim(cfg);
        const SimStats stats = sim.run();

        if (regen) {
            std::printf(
                "    {\"%s\", %s, %llu, %llu, %.9g, %.9g, %llu, %llu, "
                "%llu, %llu},\n",
                name.c_str(), stats.saturated ? "true" : "false",
                static_cast<unsigned long long>(stats.deliveredMessages),
                static_cast<unsigned long long>(stats.measuredCycles),
                stats.meanLatency(), stats.acceptedFlitRate,
                static_cast<unsigned long long>(stats.requestsCompleted),
                static_cast<unsigned long long>(stats.requestRetries),
                static_cast<unsigned long long>(stats.droppedMessages),
                static_cast<unsigned long long>(stats.reroutedHeads));
            continue;
        }

        const BlockedRow& want = kBlockedGolden[i];
        EXPECT_EQ(name, want.name) << "case order changed";
        EXPECT_EQ(stats.saturated, want.saturated) << name;
        EXPECT_EQ(stats.deliveredMessages, want.delivered) << name;
        EXPECT_EQ(stats.measuredCycles, want.measuredCycles) << name;
        EXPECT_NEAR(stats.meanLatency(), want.latency,
                    1e-7 * want.latency)
            << name;
        EXPECT_NEAR(stats.acceptedFlitRate, want.accepted,
                    1e-7 * want.accepted)
            << name;
        EXPECT_EQ(stats.requestsCompleted, want.requestsCompleted)
            << name;
        EXPECT_EQ(stats.requestRetries, want.requestRetries) << name;
        EXPECT_EQ(stats.droppedMessages, want.droppedMessages) << name;
        EXPECT_EQ(stats.reroutedHeads, want.reroutedHeads) << name;
    }
}

} // namespace
} // namespace lapses
