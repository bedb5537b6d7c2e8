/**
 * @file
 * Unit tests for the run-configuration flag parser shared by
 * lapses-sim, lapses-campaign and lapses-merge (applySimConfigFlag),
 * lapses-sim's --sweep range, and the checked LAPSES_JOBS job count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "exp/campaign_cli.hpp"
#include "exp/grid_spec.hpp"
#include "exp/thread_pool.hpp"

namespace lapses
{
namespace
{

/** Apply argv-style args as one tool's main() would; returns whether
 *  the first flag was consumed and how far i advanced. */
bool
applyFlag(SimConfig& cfg, std::vector<std::string> args, int& advanced)
{
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("test"));
    for (std::string& a : args)
        argv.push_back(a.data());
    int i = 1;
    const bool consumed = applySimConfigFlag(
        cfg, static_cast<int>(argv.size()), argv.data(), i);
    advanced = i - 1;
    return consumed;
}

struct FlagCase
{
    const char* flag;
    const char* good;   //!< valid value ("" = a switch without one)
    std::function<bool(const SimConfig&)> isSet;
    const char* bad;    //!< malformed value
    const char* named;  //!< what the bad-value error names
};

// Checked numeric flags name themselves in the error; name-valued
// flags name the quantity they set ("router model", "fault policy").
const std::vector<FlagCase>&
flagCases()
{
    static const std::vector<FlagCase> cases = {
        {"--mesh", "4x4x4",
         [](const SimConfig& c) {
             return c.radices == std::vector<int>{4, 4, 4};
         },
         "1x4", "--mesh"},
        {"--torus", "",
         [](const SimConfig& c) { return c.torus; }, nullptr, nullptr},
        {"--topology", "fattree4x2",
         [](const SimConfig& c) {
             return c.topology.kind == TopologyKind::FatTree;
         },
         "hypercube", "--topology"},
        {"--model", "proud",
         [](const SimConfig& c) { return c.model == RouterModel::Proud; },
         "fast", "router model"},
        {"--vcs", "6",
         [](const SimConfig& c) { return c.vcsPerPort == 6; }, "0",
         "--vcs"},
        {"--buffers", "7",
         [](const SimConfig& c) { return c.bufferDepth == 7; }, "x",
         "--buffers"},
        {"--escape-vcs", "2",
         [](const SimConfig& c) { return c.escapeVcs == 2; }, "-2",
         "--escape-vcs"},
        {"--routing", "west-first",
         [](const SimConfig& c) {
             return c.routing == RoutingAlgo::WestFirst;
         },
         "zigzag", "routing algorithm"},
        {"--table", "meta-row",
         [](const SimConfig& c) {
             return c.table == TableKind::MetaRowMinimal;
         },
         "sparse", "table kind"},
        {"--selector", "max-credit",
         [](const SimConfig& c) {
             return c.selector == SelectorKind::MaxCredit;
         },
         "best", "path selector"},
        {"--traffic", "transpose",
         [](const SimConfig& c) {
             return c.traffic == TrafficKind::Transpose;
         },
         "chaos", "traffic pattern"},
        {"--load", "0.35",
         [](const SimConfig& c) { return c.normalizedLoad == 0.35; },
         "0", "--load"},
        {"--msglen", "9",
         [](const SimConfig& c) { return c.msgLen == 9; }, "0",
         "--msglen"},
        {"--injection", "bursty",
         [](const SimConfig& c) {
             return c.injection == InjectionKind::Bursty;
         },
         "poisson", "injection process"},
        {"--hotspot-frac", "0.25",
         [](const SimConfig& c) { return c.hotspot.fraction == 0.25; },
         "1.5", "--hotspot-frac"},
        {"--workload", "request-reply",
         [](const SimConfig& c) {
             return c.workload == WorkloadKind::RequestReply;
         },
         "batch", "workload"},
        {"--servers", "5",
         [](const SimConfig& c) { return c.servers == 5; }, "0",
         "--servers"},
        {"--inflight-window", "3",
         [](const SimConfig& c) { return c.inflightWindow == 3; }, "0",
         "--inflight-window"},
        {"--request-timeout", "900",
         [](const SimConfig& c) { return c.requestTimeout == 900u; },
         "-1", "--request-timeout"},
        {"--max-retries", "0",
         [](const SimConfig& c) { return c.maxRetries == 0; }, "-1",
         "--max-retries"},
        {"--backoff-base", "32",
         [](const SimConfig& c) { return c.backoffBase == 32u; }, "x",
         "--backoff-base"},
        {"--service-time", "40",
         [](const SimConfig& c) { return c.serviceTime == 40u; }, "1.5",
         "--service-time"},
        {"--fail-link", "5:1@300",
         [](const SimConfig& c) {
             return c.faultEvents.size() == 1 && c.faultEvents[0].down;
         },
         "nope", "fault event"},
        {"--repair-link", "5:1@900",
         [](const SimConfig& c) {
             return c.faultEvents.size() == 1 && !c.faultEvents[0].down;
         },
         "5:0@9", "fault event"},
        {"--faults", "3",
         [](const SimConfig& c) { return c.faultCount == 3; }, "-1",
         "--faults"},
        {"--fault-seed", "99",
         [](const SimConfig& c) { return c.faultSeed == 99u; }, "-1",
         "--fault-seed"},
        {"--fault-start", "500",
         [](const SimConfig& c) { return c.faultStart == 500u; }, "x",
         "--fault-start"},
        {"--fault-spacing", "250",
         [](const SimConfig& c) { return c.faultSpacing == 250u; },
         "1e3", "--fault-spacing"},
        {"--reconfig-latency", "50",
         [](const SimConfig& c) { return c.reconfigLatency == 50u; },
         "x", "--reconfig-latency"},
        {"--fault-policy", "drop",
         [](const SimConfig& c) {
             return c.faultPolicy == FaultPolicy::Drop;
         },
         "retry", "fault policy"},
        {"--mode", "paper",
         [](const SimConfig& c) {
             return c.warmupMessages == 10000 &&
                    c.measureMessages == 400000;
         },
         "papers", "mode"},
        {"--warmup", "123",
         [](const SimConfig& c) { return c.warmupMessages == 123u; },
         "-5", "--warmup"},
        {"--measure", "456",
         [](const SimConfig& c) { return c.measureMessages == 456u; },
         "x", "--measure"},
        {"--intra-jobs", "3",
         [](const SimConfig& c) { return c.intraJobs == 3u; }, "-1",
         "--intra-jobs"},
        {"--telemetry-window", "128",
         [](const SimConfig& c) { return c.telemetryWindow == 128u; },
         "x", "--telemetry-window"},
    };
    return cases;
}

TEST(SimConfigFlags, EveryRunFlagSetsItsField)
{
    ASSERT_EQ(flagCases().size(), 35u);
    for (const FlagCase& c : flagCases()) {
        SimConfig cfg;
        ASSERT_FALSE(c.isSet(cfg)) << c.flag << " already set";
        std::vector<std::string> args = {c.flag};
        if (*c.good != '\0')
            args.push_back(c.good);
        int advanced = 0;
        EXPECT_TRUE(applyFlag(cfg, args, advanced)) << c.flag;
        EXPECT_EQ(advanced, static_cast<int>(args.size()) - 1) << c.flag;
        EXPECT_TRUE(c.isSet(cfg)) << c.flag << " " << c.good;
    }
}

TEST(SimConfigFlags, BadOrMissingValuesNameTheFlag)
{
    for (const FlagCase& c : flagCases()) {
        if (c.bad == nullptr)
            continue; // a switch takes no value
        SimConfig cfg;
        int advanced = 0;
        try {
            applyFlag(cfg, {c.flag, c.bad}, advanced);
            ADD_FAILURE() << "accepted " << c.flag << " " << c.bad;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find(c.named),
                      std::string::npos)
                << c.flag << ": " << e.what();
        }
        try {
            applyFlag(cfg, {c.flag}, advanced);
            ADD_FAILURE() << "accepted " << c.flag << " without a value";
        } catch (const ConfigError& e) {
            EXPECT_EQ(std::string(e.what()),
                      "missing value for " + std::string(c.flag));
        }
    }
}

TEST(SimConfigFlags, MeshRadicesParseStrictly)
{
    for (const char* bad :
         {"8q8", "8x8junk", "8x", "x8", "", "8xx8", "8x-8", "8x+8",
          " 8x8", "8x8 ", "99999999999x2"}) {
        SimConfig cfg;
        int advanced = 0;
        try {
            applyFlag(cfg, {"--mesh", bad}, advanced);
            ADD_FAILURE() << "accepted --mesh '" << bad << "'";
        } catch (const ConfigError& e) {
            EXPECT_EQ(std::string(e.what()),
                      "bad --mesh value '" + std::string(bad) +
                          "' (want radices of at least 2 joined by 'x', "
                          "e.g. 16x16)");
        }
    }
    SimConfig cfg;
    int advanced = 0;
    ASSERT_TRUE(applyFlag(cfg, {"--mesh", "8"}, advanced));
    EXPECT_EQ(cfg.radices, std::vector<int>{8});
    ASSERT_TRUE(applyFlag(cfg, {"--mesh", "16x2x3"}, advanced));
    EXPECT_EQ(cfg.radices, (std::vector<int>{16, 2, 3}));
}

TEST(SimConfigFlags, NumberBoundsPrintInShortestForm)
{
    const auto message = [](const char* flag, const char* value) {
        SimConfig cfg;
        int advanced = 0;
        try {
            applyFlag(cfg, {flag, value}, advanced);
        } catch (const ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message("--load", "0"),
              "bad --load value '0' (want a number in [1e-09, "
              "1.7976931348623157e+308])");
    EXPECT_EQ(message("--hotspot-frac", "1.5"),
              "bad --hotspot-frac value '1.5' (want a number in [0, 1])");
}

TEST(SimConfigFlags, ToolOwnedFlagsAreNotConsumed)
{
    const SimConfig defaults;
    for (const char* flag :
         {"--seed", "--grid", "--link-delay", "--sweep", "--jobs"}) {
        SimConfig cfg;
        int advanced = 0;
        EXPECT_FALSE(applyFlag(cfg, {flag, "3"}, advanced)) << flag;
        EXPECT_EQ(advanced, 0) << flag;
        EXPECT_EQ(cfg.seed, defaults.seed) << flag;
        EXPECT_EQ(cfg.linkDelay, defaults.linkDelay) << flag;
    }
}

TEST(SimConfigFlags, CampaignCliKeepsItsOwnSeed)
{
    std::vector<std::string> args = {"test", "--seed", "7", "--vcs",
                                     "2"};
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    CampaignCli cli;
    for (int i = 1; i < static_cast<int>(argv.size()); ++i)
        ASSERT_TRUE(cli.consume(static_cast<int>(argv.size()),
                                argv.data(), i));
    EXPECT_EQ(cli.campaignSeed, 7u);
    const SimConfig defaults;
    EXPECT_EQ(cli.base.seed, defaults.seed);
    EXPECT_EQ(cli.base.vcsPerPort, 2);
}

TEST(SimConfigFlags, SweepMatchesTheGridLoadAxis)
{
    std::vector<double> sweep;
    ASSERT_TRUE(appendLoadRange("0.1:0.8:0.1", "sweep spec", sweep));
    CampaignGrid grid;
    applyGridSpec("load=0.1:0.8:0.1", grid);
    ASSERT_EQ(sweep.size(), 8u);
    EXPECT_EQ(sweep, grid.axes.loads); // bit-identical doubles

    std::vector<double> none;
    EXPECT_FALSE(appendLoadRange("0.3", "sweep spec", none));
    EXPECT_TRUE(none.empty());
    try {
        appendLoadRange("0.3:0.1:0.1", "sweep spec", none);
        FAIL() << "accepted a descending range";
    } catch (const ConfigError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "bad sweep spec '0.3:0.1:0.1' (want LO:HI:STEP)");
    }
}

/** Sets LAPSES_JOBS for one scope, restoring "unset" afterwards. */
struct JobsEnv
{
    explicit JobsEnv(const char* value)
    {
        ::setenv("LAPSES_JOBS", value, 1);
    }
    ~JobsEnv() { ::unsetenv("LAPSES_JOBS"); }
};

TEST(BenchJobs, LapsesJobsIsCheckedAndResolvedOnce)
{
    const unsigned all = resolveThreadCount(0);
    EXPECT_GE(all, 1u);
    EXPECT_EQ(resolveThreadCount(3), 3u);

    ::unsetenv("LAPSES_JOBS");
    EXPECT_EQ(benchJobsFromEnv(), all);
    {
        JobsEnv env("");
        EXPECT_EQ(benchJobsFromEnv(), all);
    }
    {
        JobsEnv env("0");
        EXPECT_EQ(benchJobsFromEnv(), all);
    }
    {
        JobsEnv env("3");
        EXPECT_EQ(benchJobsFromEnv(), 3u);
    }
    for (const char* bad : {"abc", "-1", "8x", "2.5"}) {
        JobsEnv env(bad);
        try {
            benchJobsFromEnv();
            ADD_FAILURE() << "accepted LAPSES_JOBS=" << bad;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("LAPSES_JOBS"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace lapses
