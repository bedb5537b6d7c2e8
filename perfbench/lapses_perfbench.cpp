/**
 * @file
 * The benchmark program: runs one named workload against liblapses and
 * prints its raw samples as one JSON document on stdout. run.py builds
 * this program, supplies the reference records, checks them and turns
 * the samples into the reported metrics (README.md).
 *
 *   lapses_perfbench --workload NAME --seed N --mode MODE
 *                    [--seconds S] [--spans FILE]
 *
 * Modes:
 *   timed      end-to-end samples with every observer off: whole
 *              workload iterations for S seconds, each followed by
 *              set-ups timed alone.
 *   traced     profiled passes (Network::setProfiling) paired with
 *              plain ones for S seconds, spans around every call into
 *              the library, seeded probe loops, derived layer metrics.
 *   reference  the workload's records from the scan-kernel oracle.
 *
 * It measures from outside: it only times public calls and
 * reads counters the library already exposes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lapses.hpp"
#include "exp/campaign.hpp"
#include "exp/thread_pool.hpp"
#include "stats/report.hpp"
#include "topology/spec.hpp"

using namespace lapses;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User plus system CPU seconds of the whole process, all threads. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- JSON output -------------------------------------------------------

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
list(const std::vector<std::string>& items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i == 0 ? "" : ",") + items[i];
    return out + "]";
}

std::string
quotedList(const std::vector<std::string>& items)
{
    std::vector<std::string> q;
    for (const std::string& s : items)
        q.push_back(quote(s));
    return list(q);
}

// --- Spans -------------------------------------------------------------

/**
 * In-memory span recorder: one span per call into a layer, with its
 * parent. Written once at exit with each span's self time (duration
 * minus the part its children cover).
 */
class Spans
{
  public:
    class Scope
    {
      public:
        Scope(Spans* spans, std::string name) : spans_(spans)
        {
            if (spans_ == nullptr)
                return;
            id_ = static_cast<int>(spans_->spans_.size());
            spans_->spans_.push_back(
                {id_, spans_->current_, std::move(name),
                 secondsSince(spans_->origin_), 0.0});
            spans_->current_ = id_;
        }
        ~Scope()
        {
            if (spans_ == nullptr)
                return;
            Span& s = spans_->spans_[static_cast<std::size_t>(id_)];
            s.end = secondsSince(spans_->origin_);
            spans_->current_ = s.parent;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Spans* spans_;
        int id_ = -1;
    };

    /** Total duration of every span with this name. */
    double
    total(const std::string& name) const
    {
        double t = 0.0;
        for (const Span& s : spans_) {
            if (s.name == name)
                t += s.end - s.start;
        }
        return t;
    }

    void
    write(const std::string& path) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.end - s.start;
        }
        std::ofstream out(path);
        for (const Span& s : spans_) {
            const double dur = s.end - s.start;
            out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
                << ",\"name\":" << quote(s.name)
                << ",\"start_s\":" << num(s.start)
                << ",\"end_s\":" << num(s.end)
                << ",\"self_s\":"
                << num(dur - child[static_cast<std::size_t>(s.id)])
                << "}\n";
        }
        if (!out)
            throw std::runtime_error("cannot write spans to " + path);
    }

  private:
    struct Span
    {
        int id;
        int parent;
        std::string name;
        double start;
        double end;
    };

    std::vector<Span> spans_;
    int current_ = -1;
    Clock::time_point origin_ = Clock::now();
};

// --- Workloads ---------------------------------------------------------

struct Workload
{
    std::string name;
    /** Threads one timed iteration may run at once. */
    unsigned threads = 1;
    /** The base simulation: the one simulation of mesh16_paper, the
     *  replicas' template, the campaign's base. */
    SimConfig config;
    /** The simulations one iteration runs, in order (empty for the
     *  campaign). */
    std::vector<SimConfig> sims;
    /** Non-empty for the campaign workload. */
    std::vector<CampaignGrid> grids;
    /** Shards of one extra profiled parallel-kernel pass in the traced
     *  run, which alone measures the shard barrier (0 = none). */
    unsigned layerShards = 0;

    bool campaign() const { return !grids.empty(); }
};

/**
 * The workloads (README.md says why each exists). The seed is the
 * only input that varies: it becomes SimConfig::seed (the fault seed
 * derives from it) of the first simulation, or the campaign seed.
 */
Workload
makeWorkload(const std::string& name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    int replicas = 1;
    SimConfig& cfg = w.config; // lapses-sim defaults: paper Table 2
    cfg.seed = seed;
    cfg.normalizedLoad = 0.3;
    cfg.kernel = KernelKind::Active;
    if (name == "mesh16_paper") {
        // 1000 warm-up and 10000 measured messages (the defaults).
        w.layerShards = 4;
    } else if (name == "mesh16_rpc_faults") {
        cfg.workload = WorkloadKind::RequestReply;
        cfg.faultCount = 4;
        cfg.faultPolicy = FaultPolicy::Reinject;
        cfg.selector = SelectorKind::MaxCredit;
        cfg.warmupMessages = 500;
        cfg.measureMessages = 5000;
        // Fixed fault sites: sites drawn from the run seed changed the
        // simulated work by up to 25% between seeds. The seed still
        // drives traffic, service times and backoff, which three seeds
        // per iteration average.
        cfg.faultSeed = 1;
        replicas = 3;
    } else if (name == "table4_campaign") {
        // bench/table4_table_storage in quick mode: every other load.
        applyBenchMode(cfg, BenchMode::Quick);
        const std::vector<std::pair<TrafficKind, std::vector<double>>>
            specs = {
                {TrafficKind::Uniform, {0.1, 0.3, 0.5, 0.7, 0.9}},
                {TrafficKind::Transpose, {0.1, 0.3, 0.5}},
                {TrafficKind::BitReversal, {0.1, 0.3}},
            };
        for (const auto& [traffic, loads] : specs) {
            CampaignGrid grid;
            grid.base = cfg;
            grid.base.traffic = traffic;
            grid.axes.tables = {TableKind::MetaBlockMaximal,
                                TableKind::MetaRowMinimal,
                                TableKind::Full,
                                TableKind::EconomicalStorage};
            grid.axes.loads = loads;
            grid.campaignSeed = seed;
            w.grids.push_back(std::move(grid));
        }
        w.threads = 4;
    } else {
        throw ConfigError("unknown workload '" + name + "'");
    }
    // Replica 0 runs the seed itself, replica r the derived stream r.
    for (int r = 0; r < replicas && !w.campaign(); ++r) {
        w.sims.push_back(cfg);
        if (r > 0)
            w.sims.back().seed =
                deriveSeed(seed, static_cast<std::uint64_t>(r));
    }
    return w;
}

/** Distinct (table, traffic) values of a workload, in grid order. */
std::vector<TableKind>
workloadTables(const Workload& w)
{
    if (!w.campaign())
        return {w.config.table};
    return w.grids.front().axes.tables;
}

std::vector<TrafficKind>
workloadTraffics(const Workload& w)
{
    if (!w.campaign())
        return {w.config.traffic};
    std::vector<TrafficKind> out;
    for (const CampaignGrid& g : w.grids)
        out.push_back(g.base.traffic);
    return out;
}

// --- One simulation ----------------------------------------------------

/** What one simulation yields: its record, timings and counters. */
struct SimSample
{
    std::string record; //!< statsToJson of the final statistics
    bool saturated = false;
    bool inferred = false;
    double ctorS = 0.0;
    double runS = 0.0;
    std::uint64_t nodeCycles = 0;
    std::uint64_t cycles = 0;
    std::uint64_t progress = 0;
    double imbalance = 1.0;
    KernelKind kernel = KernelKind::Active;
    Network::KernelCounters counters{};
    KernelProfile profile{};
    Network::FaultCounters faults{};
    Network::WorkloadCounters requests{};
};

SimSample
simulate(const SimConfig& cfg, bool profile, Spans* spans)
{
    SimSample s;
    auto t0 = Clock::now();
    std::unique_ptr<Simulation> sim;
    {
        Spans::Scope span(spans, "Simulation::Simulation");
        sim = std::make_unique<Simulation>(cfg);
    }
    s.ctorS = secondsSince(t0);
    Network& net = sim->network();
    net.setProfiling(profile);
    t0 = Clock::now();
    SimStats stats;
    {
        Spans::Scope span(spans, "Simulation::run");
        stats = sim->run();
    }
    s.runS = secondsSince(t0);
    s.record = statsToJson(stats);
    s.saturated = stats.saturated;
    s.cycles = net.now();
    s.nodeCycles = s.cycles * static_cast<std::uint64_t>(
                                  sim->topology().numNodes());
    s.progress = net.progressCounter();
    s.kernel = net.kernel();
    s.counters = net.kernelCounters();
    s.profile = net.kernelProfile();
    s.faults = net.faultCounters();
    s.requests = net.workloadCounters();
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    for (std::size_t i = 0; i < net.shardCount(); ++i) {
        const Network::KernelCounters& c = net.shardCounters(i);
        lo = std::min(lo, c.nicSteps + c.routerSteps);
        hi = std::max(hi, c.nicSteps + c.routerSteps);
    }
    s.imbalance = lo == 0 ? 0.0 : static_cast<double>(hi) /
                                      static_cast<double>(lo);
    return s;
}

/**
 * A campaign's runs simulated one by one, with runCampaign's
 * saturated-tail rule: once a series saturates, its heavier loads are
 * recorded as saturated without simulating. Series run on `jobs`
 * threads (the reference) or in order on the caller (traced passes,
 * whose spans and per-run times need one thread).
 */
std::vector<SimSample>
simulateRuns(const std::vector<CampaignRun>& runs, KernelKind kernel,
             bool profile, Spans* spans, unsigned jobs)
{
    std::map<std::size_t, std::vector<std::size_t>> series;
    for (std::size_t i = 0; i < runs.size(); ++i)
        series[runs[i].series].push_back(i);
    std::vector<SimSample> out(runs.size());
    auto runSeries = [&](const std::vector<std::size_t>& members) {
        bool saturated = false;
        for (const std::size_t i : members) {
            if (saturated) {
                SimStats st;
                st.saturated = true;
                out[i].record = statsToJson(st);
                out[i].inferred = true;
                continue;
            }
            SimConfig cfg = runs[i].config;
            cfg.kernel = kernel;
            Spans::Scope span(spans, "campaign.run");
            out[i] = simulate(cfg, profile, spans);
            saturated = out[i].saturated;
        }
    };
    if (jobs <= 1) {
        for (const auto& [id, members] : series)
            runSeries(members);
        return out;
    }
    ThreadPool pool(jobs);
    std::vector<std::future<void>> done;
    for (const auto& [id, members] : series)
        done.push_back(pool.submit([&, m = &members] { runSeries(*m); }));
    for (auto& f : done)
        f.get();
    return out;
}

std::vector<std::string>
records(const std::vector<SimSample>& samples)
{
    std::vector<std::string> out;
    for (const SimSample& s : samples)
        out.push_back(s.record);
    return out;
}

// --- Modes -------------------------------------------------------------

std::string
header(const Workload& w, std::uint64_t seed, const char* mode)
{
    return "\"workload\":" + quote(w.name) + ",\"seed\":" + num(seed) +
           ",\"mode\":" + quote(mode) +
           ",\"threads\":" + std::to_string(w.threads);
}

std::string
peakRss()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return num(static_cast<double>(ru.ru_maxrss) / 1024.0);
}

/** One untraced iteration: set-up then run, timed separately. */
struct Iteration
{
    double setupS = 0.0;
    double runS = 0.0;
    double cpuS = 0.0;
    std::uint64_t nodeCycles = 0; //!< 0 for the campaign (see run.py)
    std::vector<std::string> records;
    std::string error;

    std::string
    json() const
    {
        return "{\"setup_s\":" + num(setupS) + ",\"run_s\":" +
               num(runS) + ",\"cpu_s\":" + num(cpuS) +
               ",\"node_cycles\":" + num(nodeCycles) +
               ",\"records\":" + quotedList(records) + ",\"error\":" +
               (error.empty() ? "null" : quote(error)) + "}";
    }
};

Iteration
iterate(const Workload& w, Spans* spans)
{
    Iteration it;
    const double cpu0 = processCpuSeconds();
    try {
        if (w.campaign()) {
            auto t0 = Clock::now();
            std::vector<CampaignRun> runs;
            {
                Spans::Scope span(spans, "expandGrids");
                runs = expandGrids(w.grids);
            }
            it.setupS = secondsSince(t0);
            CampaignOptions opts;
            opts.jobs = w.threads;
            t0 = Clock::now();
            std::vector<RunResult> results;
            {
                Spans::Scope span(spans, "runCampaign");
                results = runCampaign(runs, opts);
            }
            it.runS = secondsSince(t0);
            for (const RunResult& r : results)
                it.records.push_back(statsToJson(r.stats));
        } else {
            for (const SimConfig& cfg : w.sims) {
                const SimSample s = simulate(cfg, false, spans);
                it.setupS += s.ctorS;
                it.runS += s.runS;
                it.nodeCycles += s.nodeCycles;
                it.records.push_back(s.record);
            }
        }
    } catch (const std::exception& e) {
        it.error = e.what();
    }
    it.cpuS = processCpuSeconds() - cpu0;
    return it;
}

/** Time one set-up alone, up to the first simulated cycle: the first
 *  simulation's construction, or for the campaign grid expansion plus
 *  its first run's construction. Destruction is not timed. */
double
setupOnly(const Workload& w)
{
    std::vector<CampaignRun> runs;
    std::unique_ptr<Simulation> sim;
    const auto t0 = Clock::now();
    if (w.campaign()) {
        runs = expandGrids(w.grids);
        if (runs.empty())
            throw ConfigError("empty campaign");
        sim = std::make_unique<Simulation>(runs.front().config);
    } else {
        sim = std::make_unique<Simulation>(w.sims.front());
    }
    return secondsSince(t0);
}

std::string
runTimed(const Workload& w, std::uint64_t seed, double seconds)
{
    // Whole iterations for `seconds`. After each, set-ups are timed
    // alone for 5% of its wall time (at least one), so the set-up
    // samples spread over the run as the iterations do.
    std::vector<std::string> setups, its;
    const auto t0 = Clock::now();
    do {
        const Iteration it = iterate(w, nullptr);
        its.push_back(it.json());
        if (!it.error.empty())
            continue;
        const auto gap = Clock::now();
        do {
            setups.push_back(num(setupOnly(w)));
        } while (secondsSince(gap) < 0.05 * (it.setupS + it.runS));
    } while (secondsSince(t0) < seconds);
    return "{" + header(w, seed, "timed") +
           ",\"setup_samples_s\":" + list(setups) +
           ",\"iterations\":" + list(its) +
           ",\"peak_rss_mb\":" + peakRss() + "}";
}

std::string
runReference(const Workload& w, std::uint64_t seed)
{
    std::vector<SimSample> samples;
    if (w.campaign()) {
        samples = simulateRuns(expandGrids(w.grids), KernelKind::Scan,
                               false, nullptr, w.threads);
    } else {
        for (SimConfig cfg : w.sims) {
            cfg.kernel = KernelKind::Scan;
            samples.push_back(simulate(cfg, false, nullptr));
        }
    }
    std::vector<std::string> cycles;
    for (const SimSample& s : samples)
        cycles.push_back(num(s.nodeCycles));
    return "{" + header(w, seed, "reference") +
           ",\"kernel\":\"scan\",\"records\":" +
           quotedList(records(samples)) +
           ",\"node_cycles\":" + list(cycles) + "}";
}

// --- Traced mode -------------------------------------------------------

/** Keeps probe results observable so the loops are not elided. */
volatile std::uint64_t g_probe_sink = 0;

/** Nanoseconds per call of fn over `calls` calls: the median of five
 *  timed repetitions, each at least 20 ms long. */
double
probeNs(std::size_t calls, const std::function<void()>& pass)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        std::size_t passes = 0;
        const auto t0 = Clock::now();
        do {
            pass();
            ++passes;
        } while (secondsSince(t0) < 0.02);
        reps.push_back(1e9 * secondsSince(t0) /
                       static_cast<double>(passes * calls));
    }
    return median(reps);
}

struct Pair
{
    NodeId src;
    NodeId dest;
};

/** Seeded (source, destination) pairs drawn with each of the
 *  workload's traffic patterns in turn. */
std::vector<Pair>
probePairs(const Topology& topo, const std::vector<TrafficKind>& kinds,
           std::uint64_t seed)
{
    std::vector<TrafficPatternPtr> patterns;
    for (const TrafficKind k : kinds)
        patterns.push_back(makeTrafficPattern(k, topo));
    Rng rng(seed);
    std::vector<Pair> pairs;
    const std::size_t want = 4096;
    for (std::size_t i = 0; pairs.size() < want && i < 16 * want; ++i) {
        const NodeId src = topo.endpoint(static_cast<NodeId>(
            rng.nextBounded(static_cast<std::uint64_t>(
                topo.numEndpoints()))));
        const NodeId dest = patterns[i % patterns.size()]->pick(src, rng);
        if (dest != kInvalidNode)
            pairs.push_back({src, dest});
    }
    return pairs;
}

using Layers = std::vector<std::pair<std::string, double>>;

/** Layer metrics of one profiled pass over the workload's runs; a run
 *  whose profile phases exceed its run time is a failure. */
Layers
passLayers(const std::vector<SimSample>& runs,
           std::vector<std::string>& failures)
{
    double ctor = 0.0, run = 0.0, imbalance = 0.0, other = 0.0;
    double barrier = 0.0, boundary = 0.0, wire = 0.0;
    std::uint64_t node_cycles = 0, cycles = 0, progress = 0;
    Network::KernelCounters kc{};
    KernelProfile prof{};
    Network::FaultCounters fc{};
    Network::WorkloadCounters wc{};
    for (const SimSample& s : runs) {
        if (s.inferred)
            continue;
        ctor += s.ctorS;
        run += s.runS;
        node_cycles += s.nodeCycles;
        cycles += s.cycles;
        progress += s.progress;
        imbalance = std::max(imbalance, s.imbalance);
        kc.nicSteps += s.counters.nicSteps;
        kc.routerSteps += s.counters.routerSteps;
        kc.wireEventsDelivered += s.counters.wireEventsDelivered;
        kc.fastForwardedCycles += s.counters.fastForwardedCycles;
        const KernelProfile& p = s.profile;
        prof.nicStepSeconds += p.nicStepSeconds;
        prof.routerStepSeconds += p.routerStepSeconds;
        prof.faultSeconds += p.faultSeconds;
        barrier += p.barrierWaitSeconds;
        boundary += p.boundaryDrainSeconds;
        // KernelProfile's phases overlap. Under the active and scan
        // kernels "wire drain" already contains "intra deliver"; under
        // the parallel kernel NIC, router and intra phases are summed
        // over shard threads. Only phases that are disjoint on the
        // coordinator's clock are subtracted from wall time.
        const bool parallel = s.kernel == KernelKind::Parallel;
        wire += p.wireDrainSeconds + p.boundaryDrainSeconds +
                (parallel ? p.intraDeliverySeconds : 0.0);
        double disjoint = p.wireDrainSeconds + p.boundaryDrainSeconds +
                          p.barrierWaitSeconds + p.faultSeconds +
                          p.telemetrySeconds;
        if (!parallel)
            disjoint += p.nicStepSeconds + p.routerStepSeconds;
        if (disjoint > s.runS) {
            failures.push_back("network.other_s is negative (" +
                               num(s.runS - disjoint) +
                               " s): profile phases overlap");
        }
        other += s.runS - disjoint;
        fc.linkDownEvents += s.faults.linkDownEvents;
        fc.droppedMessages += s.faults.droppedMessages;
        fc.reinjectedMessages += s.faults.reinjectedMessages;
        wc.issued += s.requests.issued;
        wc.completed += s.requests.completed;
        wc.failed += s.requests.failed;
        wc.retries += s.requests.retries;
        wc.timeouts += s.requests.timeouts;
    }
    auto per = [](double total, std::uint64_t count) {
        return count == 0 ? 0.0 : total / static_cast<double>(count);
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"core.sim_ctor_s", ctor},
        {"router.steps", d(kc.routerSteps)},
        {"router.step_ns", 1e9 * per(prof.routerStepSeconds,
                                     kc.routerSteps)},
        {"router.steps_per_node_cycle",
         per(d(kc.routerSteps), node_cycles)},
        {"router.progress_per_step", per(d(progress), kc.routerSteps)},
        {"network.wire_events", d(kc.wireEventsDelivered)},
        {"network.wire_ns", 1e9 * per(wire, kc.wireEventsDelivered)},
        {"network.nic_steps", d(kc.nicSteps)},
        {"network.nic_step_ns", 1e9 * per(prof.nicStepSeconds,
                                          kc.nicSteps)},
        {"network.cycles", d(cycles)},
        {"network.ff_cycles", d(kc.fastForwardedCycles)},
        {"network.other_s", other},
        {"network.barrier_wait_s", barrier},
        {"network.barrier_frac", run > 0.0 ? barrier / run : 0.0},
        {"network.boundary_drain_s", boundary},
        {"network.shard_imbalance", imbalance},
        {"network.fault_s", prof.faultSeconds},
        {"fault.link_down_events", d(fc.linkDownEvents)},
        {"fault.dropped_messages", d(fc.droppedMessages)},
        {"fault.reinjected_messages", d(fc.reinjectedMessages)},
        {"workload.requests_issued", d(wc.issued)},
        {"workload.requests_failed", d(wc.failed)},
        {"workload.retries", d(wc.retries)},
        {"workload.timeouts", d(wc.timeouts)},
        {"workload.goodput_ratio", per(d(wc.completed), wc.issued)},
    };
}

/** Median of each named value over several passes (counts repeat, so
 *  their median is the count). */
Layers
medianLayers(const std::vector<Layers>& passes)
{
    Layers out;
    if (passes.empty())
        return out;
    for (std::size_t i = 0; i < passes.front().size(); ++i) {
        std::vector<double> v;
        for (const Layers& p : passes)
            v.push_back(p[i].second);
        out.emplace_back(passes.front()[i].first, median(v));
    }
    return out;
}

/** Seeded probe loops over the set-up layers' objects: route
 *  computation, each table's lookup and path selection. */
Layers
probeLayers(const Workload& w, std::uint64_t seed, Spans& spans)
{
    // The calls Simulation's constructor makes, one by one, once per
    // table scheme of the workload.
    const std::vector<TableKind> tables = workloadTables(w);
    std::unique_ptr<Topology> topo;
    {
        Spans::Scope span(&spans, "makeTopology");
        topo = std::make_unique<Topology>(makeTopology(
            w.config.resolvedTopology(), w.config.radices));
    }
    RoutingAlgorithmPtr algo;
    {
        Spans::Scope span(&spans, "makeRoutingAlgorithm");
        algo = makeRoutingAlgorithm(w.config.routing, *topo);
    }
    std::vector<RoutingTablePtr> programmed;
    double entries = 0.0;
    for (const TableKind kind : tables) {
        Spans::Scope span(&spans, "makeRoutingTable");
        programmed.push_back(makeRoutingTable(kind, *topo, *algo));
        entries += static_cast<double>(
            programmed.back()->entriesPerRouter());
    }

    const std::vector<Pair> pairs =
        probePairs(*topo, workloadTraffics(w), seed);
    double route_ns = 0.0;
    {
        Spans::Scope span(&spans, "RoutingAlgorithm::route");
        route_ns = probeNs(pairs.size(), [&] {
            std::uint64_t n = 0;
            for (const Pair& p : pairs)
                n += static_cast<std::uint64_t>(
                    algo->route(p.src, p.dest).count());
            g_probe_sink = g_probe_sink + n;
        });
    }
    std::map<TableKind, double> lookup_ns;
    double lookup_mean = 0.0;
    for (std::size_t t = 0; t < tables.size(); ++t) {
        Spans::Scope span(&spans, "RoutingTable::lookup");
        const RoutingTable& table = *programmed[t];
        lookup_ns[tables[t]] = probeNs(pairs.size(), [&] {
            std::uint64_t n = 0;
            for (const Pair& p : pairs)
                n += static_cast<std::uint64_t>(
                    table.lookup(p.src, p.dest).count());
            g_probe_sink = g_probe_sink + n;
        });
        lookup_mean += lookup_ns[tables[t]] /
                       static_cast<double>(tables.size());
    }
    auto lookupOf = [&](TableKind kind) {
        const auto it = lookup_ns.find(kind);
        return it == lookup_ns.end() ? 0.0 : it->second;
    };

    // Candidate sets from the workload's last table, with seeded port
    // state standing in for the router's snapshots.
    Rng rng(seed);
    std::vector<std::vector<PortStatus>> sets;
    for (const Pair& p : pairs) {
        const RouteCandidates rc = programmed.back()->lookup(p.src, p.dest);
        std::vector<PortStatus> set;
        for (int i = 0; i < rc.count(); ++i) {
            PortStatus ps;
            ps.port = rc.at(i);
            ps.freeVcs = 1 + static_cast<int>(rng.nextBounded(4));
            ps.totalCredits = static_cast<int>(rng.nextBounded(81));
            ps.activeVcs = static_cast<int>(rng.nextBounded(5));
            ps.useCount = rng.nextBounded(1u << 20);
            ps.lastUseCycle = rng.nextBounded(1u << 20);
            set.push_back(ps);
        }
        sets.push_back(std::move(set));
    }
    PathSelectorPtr selector =
        makePathSelector(w.config.selector, Rng(seed));
    double select_ns = 0.0;
    {
        Spans::Scope span(&spans, "PathSelector::select");
        select_ns = probeNs(sets.size(), [&] {
            std::uint64_t n = 0;
            for (const auto& set : sets)
                n += static_cast<std::uint64_t>(selector->select(set));
            g_probe_sink = g_probe_sink + n;
        });
    }

    return {
        {"topology.build_s", spans.total("makeTopology")},
        {"tables.program_s", spans.total("makeRoutingTable")},
        {"tables.entries_per_router",
         entries / static_cast<double>(tables.size())},
        {"routing.route_ns", route_ns},
        {"tables.lookup_ns", lookup_mean},
        {"tables.lookup_ns.meta-block",
         lookupOf(TableKind::MetaBlockMaximal)},
        {"tables.lookup_ns.meta-row", lookupOf(TableKind::MetaRowMinimal)},
        {"tables.lookup_ns.full-table", lookupOf(TableKind::Full)},
        {"tables.lookup_ns.economical-storage",
         lookupOf(TableKind::EconomicalStorage)},
        {"selection.select_ns", select_ns},
    };
}

/** One traced-mode pass as JSON: its run time and its records. */
std::string
passJson(bool traced, double run, double cpu,
         const std::vector<SimSample>& samples, const std::string& error)
{
    return "{\"traced\":" + std::string(traced ? "true" : "false") +
           ",\"run_s\":" + num(run) + ",\"cpu_s\":" + num(cpu) +
           ",\"records\":" + quotedList(records(samples)) +
           ",\"error\":" + (error.empty() ? "null" : quote(error)) + "}";
}

std::string
runTraced(const Workload& w, std::uint64_t seed, double seconds,
          const std::string& spans_path)
{
    Spans spans;
    std::vector<std::string> passes, failures;
    std::vector<Layers> pass_layers;
    std::vector<double> traced_s, plain_s, plain_wall_s, plain_cpu_s;
    std::vector<double> run_s; // per simulated run, first traced pass
    std::size_t simulated = 0;
    const std::vector<CampaignRun> runs =
        w.campaign() ? expandGrids(w.grids) : std::vector<CampaignRun>{};

    // Profiled and plain passes in pairs for `seconds`; which of the two
    // goes first alternates, so neither always runs after the other. A
    // campaign pass simulates its runs one by one.
    const auto t0 = Clock::now();
    bool traced_first = true;
    do {
        for (const bool traced : {traced_first, !traced_first}) {
            Spans* sp = traced ? &spans : nullptr;
            Spans::Scope span(sp, "pass");
            const double cpu0 = processCpuSeconds();
            std::vector<SimSample> samples;
            std::string error;
            try {
                if (w.campaign()) {
                    samples = simulateRuns(runs, w.config.kernel, traced,
                                           sp, 1);
                } else {
                    for (const SimConfig& cfg : w.sims)
                        samples.push_back(simulate(cfg, traced, sp));
                }
            } catch (const std::exception& e) {
                error = e.what();
            }
            const double cpu = processCpuSeconds() - cpu0;
            double run = 0.0, ctor = 0.0;
            for (const SimSample& s : samples) {
                run += s.runS;
                ctor += s.ctorS;
            }
            if (traced) {
                traced_s.push_back(run);
                if (error.empty())
                    pass_layers.push_back(passLayers(samples, failures));
                if (run_s.empty()) {
                    for (const SimSample& s : samples) {
                        if (!s.inferred)
                            run_s.push_back(s.runS);
                    }
                    simulated = run_s.size();
                }
            } else {
                plain_s.push_back(run);
                plain_wall_s.push_back(run + ctor);
                plain_cpu_s.push_back(cpu);
            }
            passes.push_back(passJson(traced, run, cpu, samples, error));
        }
        traced_first = !traced_first;
    } while (secondsSince(t0) < seconds);
    Layers layers = medianLayers(pass_layers);

    // The shard barrier exists only under the parallel kernel: one
    // profiled pass on layerShards shards measures it.
    if (w.layerShards > 0) {
        Spans::Scope span(&spans, "pass.sharded");
        const double cpu0 = processCpuSeconds();
        std::vector<SimSample> samples;
        std::string error;
        try {
            for (SimConfig cfg : w.sims) {
                cfg.kernel = KernelKind::Parallel;
                cfg.intraJobs = w.layerShards;
                samples.push_back(simulate(cfg, true, &spans));
            }
        } catch (const std::exception& e) {
            error = e.what();
        }
        double run = 0.0;
        for (const SimSample& s : samples)
            run += s.runS;
        passes.push_back(passJson(true, run, processCpuSeconds() - cpu0,
                                  samples, error));
        const Layers sharded = passLayers(samples, failures);
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const std::string& name = layers[i].first;
            if (name.starts_with("network.barrier_") ||
                name == "network.boundary_drain_s" ||
                name == "network.shard_imbalance")
                layers[i].second = sharded[i].second;
        }
    }

    // Scheduling: serial per-run times against one plain runCampaign
    // iteration (a single run is its own schedule).
    const double run_max =
        run_s.empty() ? 0.0 : *std::max_element(run_s.begin(), run_s.end());
    double run_sum = 0.0;
    for (const double s : run_s)
        run_sum += s;
    double sched_eff = 1.0;
    double worker_util =
        median(plain_cpu_s) / (median(plain_wall_s) * w.threads);
    std::string campaign_iteration = "null";
    if (w.campaign()) {
        const Iteration it = iterate(w, &spans);
        campaign_iteration = it.json();
        const double wall = it.setupS + it.runS;
        sched_eff = std::max(run_sum / w.threads, run_max) / it.runS;
        worker_util = it.cpuS / (wall * w.threads);
    }

    Layers all = probeLayers(w, seed, spans);
    all.insert(all.end(), layers.begin(), layers.end());
    const std::size_t n_runs = w.campaign() ? runs.size() : w.sims.size();
    all.insert(all.end(), {
        {"exp.runs", static_cast<double>(n_runs)},
        {"exp.runs_inferred_sat", static_cast<double>(n_runs - simulated)},
        {"exp.run_s_p50", median(run_s)},
        {"exp.run_s_max", run_max},
        {"exp.sched_eff", sched_eff},
        {"exp.worker_util", worker_util},
        {"network.trace_overhead", median(traced_s) / median(plain_s)},
    });
    if (!spans_path.empty())
        spans.write(spans_path);

    std::vector<std::string> items;
    for (const auto& [name, value] : all)
        items.push_back(quote(name) + ":" + num(value));
    std::string metrics = list(items);
    metrics.front() = '{';
    metrics.back() = '}';
    return "{" + header(w, seed, "traced") +
           ",\"passes\":" + list(passes) +
           ",\"campaign_iteration\":" + campaign_iteration +
           ",\"layers\":" + metrics +
           ",\"layer_failures\":" + quotedList(failures) +
           ",\"peak_rss_mb\":" + peakRss() + "}";
}

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "lapses_perfbench: %s\nusage: lapses_perfbench "
                 "--workload NAME --seed N --mode timed|traced|reference"
                 " [--seconds S] [--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, mode, spans_path;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                workload = value;
            } else if (arg == "--mode") {
                mode = value;
            } else if (arg == "--seed") {
                seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                seconds = std::stod(value);
            } else if (arg == "--spans") {
                spans_path = value;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (workload.empty() || mode.empty() || !have_seed)
        usage("--workload, --seed and --mode are required");
    try {
        const Workload w = makeWorkload(workload, seed);
        std::string out;
        if (mode == "timed")
            out = runTimed(w, seed, seconds);
        else if (mode == "traced")
            out = runTraced(w, seed, seconds, spans_path);
        else if (mode == "reference")
            out = runReference(w, seed);
        else
            usage("unknown mode " + mode);
        std::printf("%s\n", out.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lapses_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
