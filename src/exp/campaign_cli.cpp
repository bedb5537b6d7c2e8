#include "exp/campaign_cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <system_error>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "core/names.hpp"
#include "exp/grid_spec.hpp"

namespace lapses
{

namespace
{

/** Parse "16x16" or "4x4x4" into radices: every 'x'-separated field
 *  must be a whole decimal number of at least 2. */
std::vector<int>
parseMesh(const std::string& spec)
{
    std::vector<int> radices;
    std::size_t pos = 0;
    while (true) {
        const std::size_t next = std::min(spec.find('x', pos), spec.size());
        const char* first = spec.data() + pos;
        const char* last = spec.data() + next;
        int k = 0;
        const auto [end, ec] = std::from_chars(first, last, k);
        if (first == last || ec != std::errc{} || end != last || k < 2) {
            throw ConfigError("bad --mesh value '" + spec +
                              "' (want radices of at least 2 joined by "
                              "'x', e.g. 16x16)");
        }
        radices.push_back(k);
        if (next == spec.size())
            return radices;
        pos = next + 1;
    }
}

/** The value argument of argv[i], advancing i past it. */
std::string
nextValue(int argc, char** argv, int& i)
{
    if (i + 1 >= argc)
        throw ConfigError("missing value for " + std::string(argv[i]));
    return argv[++i];
}

} // namespace

bool
applySimConfigFlag(SimConfig& cfg, int argc, char** argv, int& i)
{
    const std::string arg = argv[i];
    auto value = [&]() { return nextValue(argc, argv, i); };
    const int int_max = std::numeric_limits<int>::max();
    if (arg == "--mesh") {
        cfg.radices = parseMesh(value());
    } else if (arg == "--torus") {
        cfg.torus = true;
    } else if (arg == "--topology") {
        cfg.topology = parseTopologySpec(arg, value());
        if (cfg.topology.isMeshKind())
            cfg.torus = cfg.topology.kind == TopologyKind::Torus;
    } else if (arg == "--model") {
        cfg.model = parseRouterModel(value());
    } else if (arg == "--vcs") {
        cfg.vcsPerPort = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--buffers") {
        cfg.bufferDepth = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--escape-vcs") {
        cfg.escapeVcs = parseCheckedInt(arg, value(), -1, int_max);
    } else if (arg == "--routing") {
        cfg.routing = parseRoutingAlgo(value());
    } else if (arg == "--table") {
        cfg.table = parseTableKind(value());
    } else if (arg == "--selector") {
        cfg.selector = parseSelectorKind(value());
    } else if (arg == "--traffic") {
        cfg.traffic = parseTrafficKind(value());
    } else if (arg == "--load") {
        cfg.normalizedLoad = parseCheckedDouble(
            arg, value(), 1e-9, std::numeric_limits<double>::max());
    } else if (arg == "--msglen") {
        cfg.msgLen = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--injection") {
        cfg.injection = parseInjectionKind(value());
    } else if (arg == "--hotspot-frac") {
        cfg.hotspot.fraction = parseCheckedDouble(arg, value(), 0.0, 1.0);
    } else if (arg == "--faults") {
        cfg.faultCount = parseCheckedInt(arg, value(), 0, int_max);
    } else if (arg == "--fault-seed") {
        cfg.faultSeed = parseCheckedU64(arg, value());
    } else if (arg == "--fault-start") {
        cfg.faultStart = parseCheckedU64(arg, value());
    } else if (arg == "--fault-spacing") {
        cfg.faultSpacing = parseCheckedU64(arg, value());
    } else if (arg == "--reconfig-latency") {
        cfg.reconfigLatency = parseCheckedU64(arg, value());
    } else if (arg == "--fault-policy") {
        cfg.faultPolicy = parseFaultPolicy(value());
    } else if (arg == "--fail-link") {
        cfg.faultEvents.push_back(parseFaultEvent(value(), true));
    } else if (arg == "--repair-link") {
        cfg.faultEvents.push_back(parseFaultEvent(value(), false));
    } else if (arg == "--warmup") {
        cfg.warmupMessages = parseCheckedU64(arg, value());
    } else if (arg == "--measure") {
        cfg.measureMessages = parseCheckedU64(arg, value());
    } else if (arg == "--telemetry-window") {
        cfg.telemetryWindow = parseCheckedU64(arg, value());
    } else if (arg == "--workload") {
        cfg.workload = parseWorkloadKind(value());
    } else if (arg == "--request-timeout") {
        cfg.requestTimeout = parseCheckedU64(arg, value());
    } else if (arg == "--max-retries") {
        cfg.maxRetries = parseCheckedInt(arg, value(), 0, int_max);
    } else if (arg == "--backoff-base") {
        cfg.backoffBase = parseCheckedU64(arg, value());
    } else if (arg == "--inflight-window") {
        cfg.inflightWindow = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--servers") {
        cfg.servers = parseCheckedInt(arg, value(), 1, int_max);
    } else if (arg == "--service-time") {
        cfg.serviceTime = parseCheckedU64(arg, value());
    } else if (arg == "--intra-jobs") {
        cfg.intraJobs = static_cast<unsigned>(
            parseCheckedInt(arg, value(), 0, int_max));
    } else if (arg == "--mode") {
        applyBenchMode(cfg, parseBenchModeName(value()));
    } else {
        return false;
    }
    return true;
}

bool
CampaignCli::consume(int argc, char** argv, int& i)
{
    const std::string arg = argv[i];
    if (arg == "--grid") {
        gridSpecs.push_back(nextValue(argc, argv, i));
    } else if (arg == "--seed") {
        campaignSeed = parseCheckedU64(arg, nextValue(argc, argv, i));
    } else {
        return applySimConfigFlag(base, argc, argv, i);
    }
    return true;
}

std::vector<CampaignGrid>
CampaignCli::grids() const
{
    std::vector<std::string> specs = gridSpecs;
    if (specs.empty())
        specs.push_back(""); // single run of the base config
    std::vector<CampaignGrid> grids;
    grids.reserve(specs.size());
    for (const std::string& spec : specs) {
        CampaignGrid grid;
        grid.base = base;
        grid.campaignSeed = campaignSeed;
        if (!spec.empty())
            applyGridSpec(spec, grid);
        grids.push_back(std::move(grid));
    }
    return grids;
}

std::vector<CampaignRun>
CampaignCli::runs() const
{
    return expandGrids(grids());
}

const char*
campaignCliHelp()
{
    return "Campaign definition (identical for lapses-campaign and "
           "lapses-merge):\n"
           "  --grid SPEC          axes as 'axis=v1,v2;axis=v1' "
           "clauses;\n"
           "                       axes: topology|model|routing|table|\n"
           "                       selector|traffic|injection|msglen|"
           "vcs|\n"
           "                       buffers|escape|faults|fault-seed|\n"
           "                       telemetry-window|workload|load "
           "(load takes\n"
           "                       LO:HI:STEP ranges); repeat --grid\n"
           "                       to join grids\n"
           "  --seed N             campaign seed; run i gets the seed\n"
           "                       derived from (N, i)              "
           "[1]\n";
}

const char*
simConfigFlagsHelp()
{
    return "Topology / router (defaults = paper Table 2):\n"
           "  --topology T         mesh|torus|fattreeKxN|dragonflyAxHxG|\n"
           "                       file:PATH (README \"Topologies\") "
           "[mesh]\n"
           "  --mesh KxK[xK]       mesh radices        [16x16]\n"
           "  --torus              wrap links (use --routing "
           "torus-adaptive)\n"
           "  --model M            proud | la-proud    [la-proud]\n"
           "  --vcs N              VCs per channel     [4]\n"
           "  --buffers N          buffer depth flits  [20]\n"
           "  --escape-vcs N       escape VCs (-1=auto)[-1]\n"
           "\n"
           "Routing:\n"
           "  --routing A          xy|yx|duato|north-last|west-first|\n"
           "                       negative-first|torus-adaptive|\n"
           "                       up-down|up-down-adaptive [duato]\n"
           "  --table T            full-table|meta-row|meta-block|\n"
           "                       economical-storage|interval\n"
           "                                           "
           "[economical-storage]\n"
           "  --selector S         static-xy|first-free|random|min-mux|\n"
           "                       lfu|lru|max-credit  [static-xy]\n"
           "\n"
           "Workload:\n"
           "  --traffic P          uniform|transpose|bit-reversal|\n"
           "                       perfect-shuffle|bit-complement|\n"
           "                       tornado|neighbor|hotspot [uniform]\n"
           "  --load X             normalized load     [0.1]\n"
           "  --msglen N           flits per message   [20]\n"
           "  --injection I        exponential|bernoulli|bursty\n"
           "                                           [exponential]\n"
           "  --hotspot-frac X     hotspot fraction    [0.1]\n"
           "\n"
           "Closed-loop service workload (README \"Service "
           "workloads\"):\n"
           "  --workload W         open|request-reply  [open]\n"
           "  --servers N          server nodes (ids 0..N-1)   [8]\n"
           "  --inflight-window N  requests a client keeps in\n"
           "                       flight                      [2]\n"
           "  --request-timeout N  cycles before a timeout     [4000]\n"
           "  --max-retries N      retransmissions before a\n"
           "                       request is counted failed   [3]\n"
           "  --backoff-base N     first backoff delay; doubles\n"
           "                       per retry + seeded jitter   [64]\n"
           "  --service-time N     mean server service delay   [16]\n"
           "\n"
           "Dynamic link faults (README \"Fault injection\"):\n"
           "  --fail-link n:p@c    fail node n's port-p link at cycle c\n"
           "                       (repeatable)\n"
           "  --repair-link n:p@c  bring a failed link back up\n"
           "  --faults N           random mid-run link failures [0]\n"
           "  --fault-seed N       fault-site seed (0 = derive) [0]\n"
           "  --fault-start N      first random fault cycle [2000]\n"
           "  --fault-spacing N    cycles between random faults [2000]\n"
           "  --reconfig-latency N cycles before tables reprogram [200]\n"
           "  --fault-policy P     drop|reinject cut messages [reinject]\n"
           "\n"
           "Measurement:\n"
           "  --mode M             quick|default|paper preset (paper =\n"
           "                       Section 2.2's 10k warm-up / 400k\n"
           "                       measured)\n"
           "  --warmup N           warm-up messages    [1000]\n"
           "  --measure N          measured messages   [10000]\n"
           "  --intra-jobs N       parallel-kernel shard threads per\n"
           "                       run (with LAPSES_KERNEL=parallel;\n"
           "                       0 = auto via LAPSES_INTRA_JOBS /\n"
           "                       hardware). Never changes results [0]\n"
           "  --telemetry-window N cycles per telemetry window (0 = off;\n"
           "                       never changes results)           [0]\n";
}

} // namespace lapses
