/**
 * @file
 * End-to-end tests of the closed-loop request/reply workload: the
 * determinism matrix (scan/active/parallel at intra-jobs 1 and 4)
 * over a fault schedule that forces
 * timeouts mid-flight, the reliability story the layer exists for
 * (retries recover ≥99% of requests after reconfiguration; without
 * retries the same faults become counted failures), duplicate
 * suppression under a retry storm, and the deadlock watchdog's
 * outstanding-request dump.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace lapses
{
namespace
{

/** One kernel under differential test. */
struct KernelVariant
{
    std::string label;
    KernelKind kernel;
    unsigned intraJobs;
};

/** The pinned matrix: scan/active/parallel at intra-jobs 1 and 4. */
std::vector<KernelVariant>
closedLoopMatrix()
{
    return {{"scan", KernelKind::Scan, 0},
            {"active", KernelKind::Active, 0},
            {"parallel/1", KernelKind::Parallel, 1},
            {"parallel/4", KernelKind::Parallel, 4}};
}

/** Small, fast closed-loop base: 4x4 mesh, short messages. */
SimConfig
closedLoopBase()
{
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.workload = WorkloadKind::RequestReply;
    cfg.servers = 4;
    cfg.inflightWindow = 2;
    cfg.requestTimeout = 300;
    cfg.maxRetries = 3;
    cfg.backoffBase = 32;
    cfg.serviceTime = 8;
    cfg.table = TableKind::Full; // reprogrammable after faults
    cfg.warmupMessages = 30;
    cfg.measureMessages = 200;
    cfg.seed = 20260807;
    return cfg;
}

/** A fault schedule that cuts links while requests are in flight;
 *  Drop policy so lost requests recover only through the reliability
 *  layer — the run must produce real timeouts and retries. */
SimConfig
faultedBase()
{
    SimConfig cfg = closedLoopBase();
    cfg.faultCount = 2;
    cfg.faultStart = 400;
    cfg.faultSpacing = 500;
    cfg.reconfigLatency = 100;
    cfg.faultPolicy = FaultPolicy::Drop;
    return cfg;
}

/** Every request-workload field of SimStats, compared exactly. */
void
expectRequestStatsIdentical(const SimStats& ref, const SimStats& other,
                            const std::string& name)
{
    EXPECT_EQ(ref.requestsIssued, other.requestsIssued) << name;
    EXPECT_EQ(ref.requestsCompleted, other.requestsCompleted) << name;
    EXPECT_EQ(ref.requestsFailed, other.requestsFailed) << name;
    EXPECT_EQ(ref.requestTimeouts, other.requestTimeouts) << name;
    EXPECT_EQ(ref.requestRetries, other.requestRetries) << name;
    EXPECT_EQ(ref.duplicateRequests, other.duplicateRequests) << name;
    EXPECT_EQ(ref.duplicateReplies, other.duplicateReplies) << name;
    EXPECT_EQ(ref.suppressedReinjects, other.suppressedReinjects)
        << name;
    EXPECT_EQ(ref.requestGoodput, other.requestGoodput) << name;
    EXPECT_EQ(ref.requestOffered, other.requestOffered) << name;
    EXPECT_EQ(ref.measuredCycles, other.measuredCycles) << name;
    EXPECT_EQ(ref.acceptedFlitRate, other.acceptedFlitRate) << name;
    EXPECT_EQ(ref.droppedMessages, other.droppedMessages) << name;
    EXPECT_EQ(ref.saturated, other.saturated) << name;
    EXPECT_EQ(ref.requestLatency.count(), other.requestLatency.count())
        << name;
    EXPECT_EQ(ref.requestLatency.mean(), other.requestLatency.mean())
        << name;
    EXPECT_EQ(ref.requestLatency.sum(), other.requestLatency.sum())
        << name;
    EXPECT_EQ(ref.postFaultRequestLatency.count(),
              other.postFaultRequestLatency.count())
        << name;
    EXPECT_EQ(ref.postFaultRequestLatency.mean(),
              other.postFaultRequestLatency.mean())
        << name;
    for (double q : {0.5, 0.99, 0.999}) {
        EXPECT_EQ(ref.requestLatencyHist.percentile(q),
                  other.requestLatencyHist.percentile(q))
            << name << " p" << q;
    }
    for (std::size_t b = 0; b < SimStats::kRecoveryBuckets; ++b) {
        EXPECT_EQ(ref.requestRecoveryCurve[b].count(),
                  other.requestRecoveryCurve[b].count())
            << name << " bucket " << b;
        EXPECT_EQ(ref.requestRecoveryCurve[b].sum(),
                  other.requestRecoveryCurve[b].sum())
            << name << " bucket " << b;
    }
}

TEST(ClosedLoop, KernelMatrixByteIdenticalUnderFaultMidFlight)
{
    const SimConfig base = faultedBase();
    const auto variants = closedLoopMatrix();
    std::vector<SimStats> stats;
    std::vector<Cycle> end_cycles;
    for (const KernelVariant& v : variants) {
        SimConfig cfg = base;
        cfg.kernel = v.kernel;
        cfg.intraJobs = v.intraJobs;
        Simulation sim(cfg);
        ASSERT_EQ(sim.network().kernel(), v.kernel) << v.label;
        stats.push_back(sim.run());
        end_cycles.push_back(sim.network().now());
    }

    // The scenario actually exercises the reliability layer: the fault
    // schedule forces timeouts and retries mid-flight.
    EXPECT_GT(stats[0].requestTimeouts, 0u);
    EXPECT_GT(stats[0].requestRetries, 0u);
    EXPECT_GT(stats[0].linkDownEvents, 0u);
    EXPECT_GT(stats[0].requestsCompleted, 0u);

    for (std::size_t i = 1; i < stats.size(); ++i) {
        expectRequestStatsIdentical(
            stats[0], stats[i],
            "closed-loop vs " + variants[i].label);
        EXPECT_EQ(end_cycles[0], end_cycles[i]) << variants[i].label;
    }
}

TEST(ClosedLoop, LockstepSteppingAcrossKernels)
{
    // Cycle-by-cycle agreement (not only final stats): progress
    // counter, occupancy and the workload counters after every cycle,
    // through the fault epochs.
    const SimConfig base = faultedBase();
    const auto variants = closedLoopMatrix();
    std::vector<std::unique_ptr<Simulation>> sims;
    for (const KernelVariant& v : variants) {
        SimConfig cfg = base;
        cfg.kernel = v.kernel;
        cfg.intraJobs = v.intraJobs;
        sims.push_back(std::make_unique<Simulation>(cfg));
    }
    Simulation& ref = *sims.front();
    for (Cycle t = 0; t < 1500; t += 8) {
        for (auto& sim : sims)
            sim->stepCycles(8);
        const Network::WorkloadCounters rc =
            ref.network().workloadCounters();
        for (std::size_t i = 1; i < sims.size(); ++i) {
            Network& net = sims[i]->network();
            ASSERT_EQ(net.progressCounter(),
                      ref.network().progressCounter())
                << variants[i].label << " diverged at cycle " << t;
            ASSERT_EQ(net.totalOccupancy(),
                      ref.network().totalOccupancy())
                << variants[i].label << " diverged at cycle " << t;
            const Network::WorkloadCounters wc =
                net.workloadCounters();
            ASSERT_EQ(wc.issued, rc.issued)
                << variants[i].label << " at cycle " << t;
            ASSERT_EQ(wc.completed, rc.completed)
                << variants[i].label << " at cycle " << t;
            ASSERT_EQ(wc.failed, rc.failed)
                << variants[i].label << " at cycle " << t;
            ASSERT_EQ(wc.timeouts, rc.timeouts)
                << variants[i].label << " at cycle " << t;
            ASSERT_EQ(wc.retries, rc.retries)
                << variants[i].label << " at cycle " << t;
            ASSERT_EQ(wc.duplicateRequests, rc.duplicateRequests)
                << variants[i].label << " at cycle " << t;
            ASSERT_EQ(wc.duplicateReplies, rc.duplicateReplies)
                << variants[i].label << " at cycle " << t;
        }
    }
}

TEST(ClosedLoop, RetriesRecoverAfterReconfigurationNoRetriesFail)
{
    // The reliability headline. Same fault schedule twice: with the
    // retry budget the workload rides out the faults and completes
    // ≥99% of measured requests; with --max-retries 0 the same losses
    // become counted failures.
    SimConfig with_retries = faultedBase();
    Simulation sim_retry(with_retries);
    const SimStats retry = sim_retry.run();
    ASSERT_FALSE(retry.saturated);
    EXPECT_GT(retry.requestTimeouts, 0u); // faults really bit
    EXPECT_EQ(retry.requestsIssued,
              retry.requestsCompleted + retry.requestsFailed);
    EXPECT_GE(static_cast<double>(retry.requestsCompleted),
              0.99 * static_cast<double>(retry.requestsIssued));

    SimConfig no_retries = faultedBase();
    no_retries.maxRetries = 0;
    Simulation sim_fail(no_retries);
    const SimStats fail = sim_fail.run();
    ASSERT_FALSE(fail.saturated);
    EXPECT_GT(fail.requestsFailed, 0u);
    EXPECT_EQ(fail.requestsIssued,
              fail.requestsCompleted + fail.requestsFailed);
    EXPECT_EQ(fail.requestRetries, 0u);
    // Graceful degradation, not collapse: the healthy majority still
    // completes.
    EXPECT_GT(fail.requestsCompleted, fail.requestsFailed);
}

TEST(ClosedLoop, DuplicateSuppressionUnderRetryStorm)
{
    // A timeout far below the congested round-trip forces spurious
    // retransmissions of requests that were never lost: servers see
    // duplicates (counted, re-answered), clients suppress the double
    // replies, and the books still balance exactly.
    SimConfig cfg = closedLoopBase();
    cfg.requestTimeout = 60;
    cfg.maxRetries = 5;
    Simulation sim(cfg);
    const SimStats stats = sim.run();
    ASSERT_FALSE(stats.saturated);
    EXPECT_GT(stats.duplicateRequests, 0u);
    EXPECT_GT(stats.duplicateReplies, 0u);
    EXPECT_EQ(stats.requestsIssued,
              stats.requestsCompleted + stats.requestsFailed);
    // Every measured completion was counted exactly once: the latency
    // accumulator saw exactly the completed requests.
    EXPECT_EQ(stats.requestLatency.count(), stats.requestsCompleted);
}

TEST(ClosedLoop, SuppressedReinjectsAreNotDrops)
{
    // Reinject policy with a timeout far below the loaded round-trip:
    // when a fault purges a transmission the client has already timed
    // out, the reinject is suppressed (the reliability layer owns the
    // retry) — and that suppression is its own counter, not a drop.
    // Needs the full 8x8 with 20-flit messages so requests sit on the
    // wire long enough for faults to purge already-timed-out attempts.
    SimConfig cfg;
    cfg.workload = WorkloadKind::RequestReply;
    cfg.table = TableKind::Full;
    cfg.requestTimeout = 150;
    cfg.maxRetries = 5;
    cfg.faultCount = 2;
    cfg.faultStart = 2000;
    cfg.faultPolicy = FaultPolicy::Reinject;
    cfg.warmupMessages = 50;
    cfg.measureMessages = 400;
    Simulation sim(cfg);
    const SimStats stats = sim.run();
    EXPECT_GT(stats.suppressedReinjects, 0u);
    EXPECT_EQ(stats.requestsIssued,
              stats.requestsCompleted + stats.requestsFailed);
}

TEST(ClosedLoop, WatchdogDumpsOutstandingRequestTable)
{
    // Requests whose timers are armed astronomically far out, plus a
    // Drop-policy fault that destroys some of them in flight: the
    // survivors' clients wait forever, nothing moves, and the
    // watchdog's trip report must name the wedged requests.
    SimConfig cfg = faultedBase();
    cfg.requestTimeout = 1'000'000;
    cfg.deadlockCycles = 3000;
    cfg.maxCycles = 200'000;
    Simulation sim(cfg);
    try {
        sim.run();
        FAIL() << "expected the deadlock watchdog to trip";
    } catch (const SimulationError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("outstanding requests ("),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("client "), std::string::npos) << msg;
        EXPECT_NE(msg.find("attempt "), std::string::npos) << msg;
    }
}

TEST(ClosedLoop, OpenLoopStatsUntouched)
{
    // An open-loop run must report zero across every request-workload
    // field — the layer is inert unless selected.
    SimConfig cfg;
    cfg.radices = {4, 4};
    cfg.msgLen = 4;
    cfg.normalizedLoad = 0.2;
    cfg.warmupMessages = 30;
    cfg.measureMessages = 200;
    Simulation sim(cfg);
    const SimStats stats = sim.run();
    EXPECT_EQ(stats.requestsIssued, 0u);
    EXPECT_EQ(stats.requestsCompleted, 0u);
    EXPECT_EQ(stats.requestsFailed, 0u);
    EXPECT_EQ(stats.requestTimeouts, 0u);
    EXPECT_EQ(stats.requestRetries, 0u);
    EXPECT_EQ(stats.duplicateRequests, 0u);
    EXPECT_EQ(stats.duplicateReplies, 0u);
    EXPECT_EQ(stats.suppressedReinjects, 0u);
    EXPECT_EQ(stats.requestLatency.count(), 0u);
    EXPECT_EQ(stats.requestGoodput, 0.0);
    EXPECT_GT(stats.deliveredMessages, 0u);
}

} // namespace
} // namespace lapses
