#include "core/simulation.hpp"

#include <algorithm>

namespace lapses
{
namespace
{

/** Cycles between phase-predicate evaluations inside a saturation
 *  window. Every kernel steps to the same quantum boundaries (the
 *  quantum is the stepUntil horizon, so an idle fast-forward never
 *  crosses one), which makes phase transitions — measure start/end,
 *  drain end — land on identical cycles and keeps the results
 *  byte-identical across kernels and shard counts. */
constexpr Cycle kPhaseQuantum = 8;

int
resolveEscapeVcs(const SimConfig& cfg, const RoutingAlgorithm& algo)
{
    if (!algo.usesEscapeChannels())
        return 1; // unused; routers ignore it without escape discipline
    if (cfg.escapeVcs > 0)
        return cfg.escapeVcs;
    // Meta-tables need the two-phase escape (see DESIGN.md); torus
    // dateline routing needs two classes as well; all other schemes
    // reserve a single escape VC.
    const bool meta = cfg.table == TableKind::MetaRowMinimal ||
                      cfg.table == TableKind::MetaBlockMaximal;
    return std::max(algo.escapeClasses(), meta ? 2 : 1);
}

/** Merge get(lane) over lanes [begin, end) with a pairwise tree
 *  (recursive midpoint split). The tree shape depends only on the
 *  lane count, never on delivery order or shard layout, so the merged
 *  Welford state is bit-for-bit reproducible. */
template <typename Lane, typename Get>
Accumulator
reduceTree(const std::vector<Lane>& lanes,
           std::size_t begin, std::size_t end, Get get)
{
    if (end - begin == 1)
        return get(lanes[begin]);
    const std::size_t mid = begin + (end - begin) / 2;
    Accumulator left = reduceTree(lanes, begin, mid, get);
    left.merge(reduceTree(lanes, mid, end, get));
    return left;
}

} // namespace

Simulation::Simulation(const SimConfig& cfg)
    : cfg_(cfg), topo_(buildTopology(cfg))
{
    cfg_.validate();
    if (cfg_.closedLoop() && cfg_.servers >= topo_.numEndpoints()) {
        throw ConfigError("servers must be in [1, numEndpoints) for "
                          "the request-reply workload");
    }
    algo_ = makeRoutingAlgorithm(cfg_.routing, topo_);
    table_ = makeRoutingTable(cfg_.table, topo_, *algo_);

    // Dynamic link faults: merge the explicit events with the seeded
    // random schedule, then validate the whole sequence (range checks,
    // legal transitions, connectivity after every down event) before
    // any network state exists.
    FaultSchedule faults;
    for (const FaultEvent& event : cfg_.faultEvents)
        faults.add(event);
    if (cfg_.faultCount > 0) {
        faults.appendRandom(topo_, cfg_.faultCount,
                            cfg_.faultSeed != 0
                                ? cfg_.faultSeed
                                : deriveFaultSeed(cfg_.seed),
                            cfg_.faultStart, cfg_.faultSpacing);
    }
    faults.validate(topo_);
    pattern_ = makeTrafficPattern(cfg_.traffic, topo_, cfg_.hotspot);
    escape_vcs_ = resolveEscapeVcs(cfg_, *algo_);
    if (algo_->usesEscapeChannels() && escape_vcs_ >= cfg_.vcsPerPort) {
        throw ConfigError(
            "vcsPerPort too small for the required escape VCs (" +
            std::to_string(escape_vcs_) + ")");
    }

    NetworkParams np;
    np.router.vcsPerPort = cfg_.vcsPerPort;
    np.router.inBufDepth = cfg_.bufferDepth;
    np.router.outBufDepth = cfg_.bufferDepth;
    np.router.lookahead = cfg_.model == RouterModel::LaProud;
    np.router.escapeVcs = escape_vcs_;
    np.nic.numVcs = cfg_.vcsPerPort;
    np.nic.routerBufDepth = cfg_.bufferDepth;
    np.nic.msgLen = cfg_.msgLen;
    np.nic.lookahead = np.router.lookahead;
    np.nic.injection = cfg_.injection;
    np.nic.burst = cfg_.burst;
    // Closed-loop runs zero the open-loop injectors: demand comes
    // from the request/reply engines instead of a rate process.
    np.nic.msgsPerCycle =
        cfg_.closedLoop()
            ? 0.0
            : msgRateForLoad(topo_, cfg_.normalizedLoad, cfg_.msgLen);
    np.workload.kind = cfg_.workload;
    np.workload.requestTimeout = cfg_.requestTimeout;
    np.workload.maxRetries = cfg_.maxRetries;
    np.workload.backoffBase = cfg_.backoffBase;
    np.workload.inflightWindow = cfg_.inflightWindow;
    np.workload.servers = cfg_.servers;
    np.workload.serviceTime = cfg_.serviceTime;
    np.selector = cfg_.selector;
    np.seed = cfg_.seed;
    np.kernel = cfg_.kernel;
    np.intraJobs = cfg_.intraJobs;
    np.linkDelay = cfg_.linkDelay;
    np.telemetryWindow = cfg_.telemetryWindow;
    np.faults = std::move(faults);
    np.reconfigLatency = cfg_.reconfigLatency;
    np.faultPolicy = cfg_.faultPolicy;
    // Online reconfiguration reprograms full tables only; other
    // storage schemes cannot express fault-aware entries (the Table 5
    // flexibility trade-off) and fall back to dead-port masking.
    np.reprogramTable = cfg_.hasFaults()
                            ? dynamic_cast<FullTable*>(table_.get())
                            : nullptr;

    net_ = std::make_unique<Network>(topo_, np, *table_,
                                     algo_->usesEscapeChannels(),
                                     *pattern_);
    net_->setDeliveryHook(&Simulation::deliveryHook, this);
    net_->setRequestHook(&Simulation::requestHook, this);

    // Delivery-side accumulators: one lane per destination node (node
    // d ejects on the thread owning d's shard, so lane writes never
    // race), one integer tally per shard. reduceStats() folds them
    // into stats_ at phase boundaries and saturation checks.
    lanes_.resize(topo_.numNodes());
    request_lanes_.resize(topo_.numNodes());
    tallies_.reserve(net_->shardCount());
    for (std::size_t s = 0; s < net_->shardCount(); ++s) {
        tallies_.emplace_back(
            stats_.latencyHist.bucketWidth(),
            stats_.latencyHist.numBuckets(),
            stats_.requestLatencyHist.bucketWidth(),
            stats_.requestLatencyHist.numBuckets());
    }

    stats_.offeredFlitRate = np.nic.msgsPerCycle * cfg_.msgLen;
}

Simulation::~Simulation() = default;

void
Simulation::deliveryHook(void* ctx, const MessageDescriptor& msg,
                         Cycle now)
{
    static_cast<Simulation*>(ctx)->recordDelivery(msg, now);
}

void
Simulation::recordDelivery(const MessageDescriptor& msg, Cycle now)
{
    // Runs on the thread that ejected the message (a shard worker
    // under the parallel kernel): only the per-destination lane and
    // the owning shard's tally may be touched here. measuring_window_
    // and lastFaultCycle() are written in sequential phases only.
    ShardTally& tally = tallies_[net_->shardOf(msg.dest)];
    if (measuring_window_)
        tally.windowFlits += msg.msgLen;
    if (!msg.measured)
        return;
    const auto total = static_cast<double>(now - msg.createdAt);
    const auto network = static_cast<double>(now - msg.injectedAt);
    DeliveryLane& lane = lanes_[msg.dest];
    lane.totalLatency.add(total);
    lane.networkLatency.add(network);
    lane.hops.add(static_cast<double>(msg.hops));
    tally.latencyHist.add(total);
    ++tally.deliveredMessages;
    tally.deliveredFlits += msg.msgLen;
    // Post-fault recovery curve: bucket deliveries by cycles elapsed
    // since the most recent fault event.
    const Cycle last_fault = net_->lastFaultCycle();
    if (last_fault != kNeverCycle) {
        lane.postFaultLatency.add(total);
        const auto bucket = std::min<std::size_t>(
            (now - last_fault) / SimStats::kRecoveryBucketCycles,
            SimStats::kRecoveryBuckets - 1);
        lane.recoveryCurve[bucket].add(total);
    }
}

void
Simulation::requestHook(void* ctx, NodeId client, Cycle issuedAt,
                        Cycle completedAt, std::uint16_t attempt,
                        bool measured)
{
    (void)attempt;
    static_cast<Simulation*>(ctx)->recordRequest(client, issuedAt,
                                                 completedAt,
                                                 measured);
}

void
Simulation::recordRequest(NodeId client, Cycle issuedAt,
                          Cycle completedAt, bool measured)
{
    // Runs on the thread owning the client's shard (completions fire
    // at the client NIC's ejection path): touch only that node's
    // request lane and its shard's tally. Requests issued in the
    // measurement window are recorded wherever they complete —
    // including the drain phase, or p99/p999 would be survivorship-
    // biased toward the fast ones.
    if (!measured)
        return;
    const auto latency = static_cast<double>(completedAt - issuedAt);
    RequestLane& lane = request_lanes_[client];
    lane.requestLatency.add(latency);
    tallies_[net_->shardOf(client)].requestLatencyHist.add(latency);
    const Cycle last_fault = net_->lastFaultCycle();
    if (last_fault != kNeverCycle) {
        lane.postFaultRequestLatency.add(latency);
        const auto bucket = std::min<std::size_t>(
            (completedAt - last_fault) /
                SimStats::kRecoveryBucketCycles,
            SimStats::kRecoveryBuckets - 1);
        lane.requestRecoveryCurve[bucket].add(latency);
    }
}

void
Simulation::reduceStats()
{
    const std::size_t n = lanes_.size();
    stats_.totalLatency = reduceTree(
        lanes_, 0, n,
        [](const DeliveryLane& l) { return l.totalLatency; });
    stats_.networkLatency = reduceTree(
        lanes_, 0, n,
        [](const DeliveryLane& l) { return l.networkLatency; });
    stats_.hops = reduceTree(
        lanes_, 0, n, [](const DeliveryLane& l) { return l.hops; });
    stats_.postFaultLatency = reduceTree(
        lanes_, 0, n,
        [](const DeliveryLane& l) { return l.postFaultLatency; });
    for (std::size_t b = 0; b < SimStats::kRecoveryBuckets; ++b) {
        stats_.recoveryCurve[b] = reduceTree(
            lanes_, 0, n,
            [b](const DeliveryLane& l) { return l.recoveryCurve[b]; });
    }

    stats_.requestLatency = reduceTree(
        request_lanes_, 0, n,
        [](const RequestLane& l) { return l.requestLatency; });
    stats_.postFaultRequestLatency = reduceTree(
        request_lanes_, 0, n, [](const RequestLane& l) {
            return l.postFaultRequestLatency;
        });
    for (std::size_t b = 0; b < SimStats::kRecoveryBuckets; ++b) {
        stats_.requestRecoveryCurve[b] = reduceTree(
            request_lanes_, 0, n, [b](const RequestLane& l) {
                return l.requestRecoveryCurve[b];
            });
    }

    stats_.latencyHist.reset();
    stats_.requestLatencyHist.reset();
    stats_.deliveredMessages = 0;
    stats_.deliveredFlits = 0;
    window_flits_ = 0;
    for (const ShardTally& t : tallies_) {
        stats_.latencyHist.merge(t.latencyHist);
        stats_.requestLatencyHist.merge(t.requestLatencyHist);
        stats_.deliveredMessages += t.deliveredMessages;
        stats_.deliveredFlits += t.deliveredFlits;
        window_flits_ += t.windowFlits;
    }

    // Closed-loop reliability counters are integers summed over the
    // engines in node order — exact and kernel-invariant.
    if (net_->closedLoop()) {
        const Network::WorkloadCounters wc = net_->workloadCounters();
        stats_.requestsIssued = wc.issuedMeasured;
        stats_.requestsCompleted = wc.completedMeasured;
        stats_.requestsFailed = wc.failedMeasured;
        stats_.requestTimeouts = wc.timeouts;
        stats_.requestRetries = wc.retries;
        stats_.duplicateRequests = wc.duplicateRequests;
        stats_.duplicateReplies = wc.duplicateReplies;
        stats_.suppressedReinjects =
            net_->faultCounters().suppressedReinjects;
    }
}

bool
Simulation::saturationCheck()
{
    Network& net = *net_;
    const Cycle now = net.now();

    // Fold the per-node lanes and per-shard tallies into stats_ so the
    // latency cutoff below sees current values. Runs between stepping
    // slices, so no shard worker is touching the sources.
    reduceStats();

    // Deadlock watchdog: flits are in the network but nothing moved for
    // a long time. This is a configuration error (non-deadlock-free
    // routing), not saturation. Closed-loop runs also count the
    // reliability layer's events as progress (a long backoff moves no
    // flits but is not a stall), and a trip with requests outstanding
    // dumps the outstanding-request table — the flit occupancy alone
    // says nothing about which client/server pair wedged.
    std::uint64_t progress = net.progressCounter();
    if (net.closedLoop()) {
        const Network::WorkloadCounters wc = net.workloadCounters();
        progress += wc.completed + wc.failed + wc.timeouts +
                    wc.retries;
    }
    if (progress != last_progress_count_) {
        last_progress_count_ = progress;
        last_progress_cycle_ = now;
    } else if (now - last_progress_cycle_ > cfg_.deadlockCycles &&
               (net.totalOccupancy() > 0 ||
                (net.closedLoop() &&
                 !net.outstandingRequests().empty()))) {
        std::string msg =
            "deadlock detected: no flit movement for " +
            std::to_string(now - last_progress_cycle_) +
            " cycles with flits in flight (" + cfg_.describe() + ")";
        if (net.closedLoop()) {
            const auto rows = net.outstandingRequests();
            msg += "\noutstanding requests (" +
                   std::to_string(rows.size()) + "):";
            constexpr std::size_t kMaxRows = 20;
            for (std::size_t i = 0;
                 i < rows.size() && i < kMaxRows; ++i) {
                const Network::OutstandingRow& r = rows[i];
                msg += "\n  client " + std::to_string(r.client) +
                       " -> server " + std::to_string(r.server) +
                       " req " + std::to_string(r.reqSeq) +
                       " attempt " + std::to_string(r.attempt) +
                       (r.backingOff ? " (backing off)" : "") +
                       " deadline " + std::to_string(r.deadline);
            }
            if (rows.size() > kMaxRows)
                msg += "\n  ... " +
                       std::to_string(rows.size() - kMaxRows) +
                       " more";
        }
        throw SimulationError(msg);
    }

    // Saturation: the offered load exceeds what the network drains.
    // Source backlog accumulates only at endpoints, so the limit
    // scales with the endpoint count (== numNodes on meshes).
    const double backlog_limit =
        cfg_.backlogSatPerNode *
        static_cast<double>(topo_.numEndpoints());
    if (static_cast<double>(net.totalBacklog()) > backlog_limit)
        return true;
    if (stats_.totalLatency.count() >= 100 &&
        stats_.totalLatency.mean() > cfg_.latencySatCutoff) {
        return true;
    }
    return now >= cfg_.maxCycles;
}

template <typename Pred>
bool
Simulation::runUntil(Pred pred)
{
    Network& net = *net_;
    while (!pred()) {
        // Batch cycles between saturation checks to keep the check off
        // the per-cycle fast path. The 256-cycle window is measured on
        // the cycle clock, not in step() calls, so every kernel runs
        // saturationCheck() at identical cycles and stays
        // byte-identical; inside a window the active kernel
        // fast-forwards idle stretches via stepUntil and the phase
        // predicate is evaluated on the fixed kPhaseQuantum grid.
        const Cycle window_end = net.now() + 256;
        while (net.now() < window_end && !pred()) {
            Cycle q = net.now() + kPhaseQuantum -
                      net.now() % kPhaseQuantum;
            if (q > window_end)
                q = window_end;
            while (net.now() < q)
                net.stepUntil(q);
        }
        if (saturationCheck()) {
            stats_.saturated = true;
            return false;
        }
    }
    return true;
}

void
Simulation::stepCycles(Cycle n)
{
    const Cycle end = net_->now() + n;
    while (net_->now() < end)
        net_->stepUntil(end);
}

void
Simulation::runPhases()
{
    Network& net = *net_;

    // Phase 1: warm-up. Inject unmeasured traffic until the configured
    // number of messages has been created.
    if (!runUntil([&] {
            return net.createdTotal() >= cfg_.warmupMessages;
        })) {
        return;
    }

    // Phase 2: measurement window. Tag new messages; stop tagging after
    // the quota.
    net.setMeasuring(true);
    measuring_window_ = true;
    measure_start_ = net.now();
    const bool measured = runUntil([&] {
        return net.createdMeasured() >= cfg_.measureMessages;
    });
    net.setMeasuring(false);
    measure_end_ = net.now();
    measuring_window_ = false;
    stats_.injectedMessages = net.createdMeasured();
    if (!measured)
        return;

    // Phase 3: drain. Injection continues (unmeasured) to hold the load
    // steady while tagged messages finish. Measured messages a fault
    // permanently dropped will never deliver; count them done.
    if (!runUntil([&] {
            return net.deliveredMeasured() + net.droppedMeasured() >=
                   net.createdMeasured();
        })) {
        return;
    }

    stats_.measuredCycles = measure_end_ - measure_start_;
    reduceStats();
    if (stats_.measuredCycles > 0) {
        stats_.acceptedFlitRate =
            static_cast<double>(window_flits_) /
            (static_cast<double>(stats_.measuredCycles) *
             static_cast<double>(topo_.numEndpoints()));
    }
}

void
Simulation::runClosedLoopPhases()
{
    Network& net = *net_;

    // Phase 1: warm-up. Clients issue from their windows until the
    // configured number of requests has been put on the wire.
    if (!runUntil([&] {
            return net.workloadCounters().issued >=
                   cfg_.warmupMessages;
        })) {
        return;
    }

    // Phase 2: measurement window. Tag new requests (and the flits
    // they generate) until the request quota is reached.
    net.setMeasuring(true);
    measuring_window_ = true;
    measure_start_ = net.now();
    const bool measured = runUntil([&] {
        return net.workloadCounters().issuedMeasured >=
               cfg_.measureMessages;
    });
    net.setMeasuring(false);
    measure_end_ = net.now();
    measuring_window_ = false;
    if (!measured)
        return;

    // Phase 3: drain. Stop admitting new requests but keep the
    // reliability layer live — timers, retries and backoff continue
    // until every measured request has either completed or exhausted
    // its retry budget. Each outstanding request terminates within a
    // bounded number of timeout + backoff rounds, so this converges.
    net.setInjectionEnabled(false);
    if (!runUntil([&] {
            const Network::WorkloadCounters wc = net.workloadCounters();
            return wc.completedMeasured + wc.failedMeasured >=
                   wc.issuedMeasured;
        })) {
        return;
    }

    const Network::WorkloadCounters wc = net.workloadCounters();
    stats_.injectedMessages = wc.issuedMeasured;
    stats_.measuredCycles = measure_end_ - measure_start_;
    reduceStats();
    if (stats_.measuredCycles > 0) {
        const auto cycles =
            static_cast<double>(stats_.measuredCycles);
        stats_.acceptedFlitRate =
            static_cast<double>(window_flits_) /
            (cycles * static_cast<double>(topo_.numEndpoints()));
        stats_.requestGoodput =
            static_cast<double>(wc.completedMeasured) / cycles;
        stats_.requestOffered =
            static_cast<double>(wc.issuedMeasured) / cycles;
    }
}

SimStats
Simulation::run()
{
    if (cfg_.closedLoop())
        runClosedLoopPhases();
    else
        runPhases();
    // Every exit path — including saturation and the early returns in
    // runPhases — reports fully reduced statistics.
    reduceStats();
    // Resilience counters accumulate in the network across all
    // phases; every exit path (including saturation) reports them.
    const Network::FaultCounters& fc = net_->faultCounters();
    stats_.linkDownEvents = fc.linkDownEvents;
    stats_.linkUpEvents = fc.linkUpEvents;
    stats_.reconfigurations = fc.reconfigurations;
    stats_.droppedMessages = fc.droppedMessages;
    stats_.droppedFlits = fc.droppedFlits;
    stats_.reinjectedMessages = fc.reinjectedMessages;
    stats_.reroutedHeads = fc.reroutedHeads;
    return stats_;
}

} // namespace lapses
