/**
 * @file
 * The top-level simulation facade: build a configured network, warm it
 * up, measure, drain, and return statistics.
 *
 * Methodology follows the paper (Section 2.2): open-loop injection,
 * warm-up messages excluded from statistics, measurement over a fixed
 * number of injected messages, results reported up to network
 * saturation ("Sat." entries in Table 4).
 */

#ifndef LAPSES_CORE_SIMULATION_HPP
#define LAPSES_CORE_SIMULATION_HPP

#include <array>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "network/network.hpp"
#include "stats/sim_stats.hpp"

namespace lapses
{

/** One configured simulation instance (single use: construct, run). */
class Simulation
{
  public:
    /** Build the network; throws ConfigError on invalid settings. */
    explicit Simulation(const SimConfig& cfg);
    ~Simulation();

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /**
     * Run warm-up, measurement and drain; returns the collected
     * statistics. Throws SimulationError if the deadlock watchdog
     * fires (indicating a non-deadlock-free configuration).
     */
    SimStats run();

    /** Advance exactly n cycles without phase logic (for tests and
     *  interactive exploration). */
    void stepCycles(Cycle n);

    const SimConfig& config() const { return cfg_; }
    const Topology& topology() const { return topo_; }
    const RoutingAlgorithm& algorithm() const { return *algo_; }
    const RoutingTable& table() const { return *table_; }
    Network& network() { return *net_; }

    /** The effective escape-VC count after auto-resolution. */
    int effectiveEscapeVcs() const { return escape_vcs_; }

    /**
     * Per-destination-node statistics accumulators (DESIGN.md "Sharded
     * stats reduction"). Node d's deliveries all eject on the thread
     * owning d's shard, so lane writes are race-free under the
     * parallel kernel with no locks; the lane granularity is the node
     * (not the shard) so the reduction shape — and therefore every
     * floating-point result — is independent of the shard count.
     */
    struct DeliveryLane
    {
        Accumulator totalLatency;
        Accumulator networkLatency;
        Accumulator hops;
        Accumulator postFaultLatency;
        std::array<Accumulator, SimStats::kRecoveryBuckets>
            recoveryCurve{};
    };

    /** Per-shard integer tallies. Integer sums are exact and
     *  order-independent, so these may be kept at shard granularity
     *  (one histogram per node would be wasteful). */
    struct ShardTally
    {
        ShardTally(double hist_width, std::size_t hist_buckets,
                   double req_width, std::size_t req_buckets)
            : latencyHist(hist_width, hist_buckets),
              requestLatencyHist(req_width, req_buckets)
        {
        }

        Histogram latencyHist;
        Histogram requestLatencyHist;
        std::uint64_t deliveredMessages = 0;
        std::uint64_t deliveredFlits = 0;
        std::uint64_t windowFlits = 0;
    };

    /**
     * Per-client-node request-SLO accumulators, sharded exactly like
     * DeliveryLane: a client's completions all fire on the thread
     * owning its shard, and the node-granular lanes reduce through
     * the same fixed-shape tree, so the merged floating-point values
     * are byte-identical for every kernel and shard count.
     */
    struct RequestLane
    {
        Accumulator requestLatency;
        Accumulator postFaultRequestLatency;
        std::array<Accumulator, SimStats::kRecoveryBuckets>
            requestRecoveryCurve{};
    };

  private:
    static void deliveryHook(void* ctx, const MessageDescriptor& msg,
                             Cycle now);
    void recordDelivery(const MessageDescriptor& msg, Cycle now);

    static void requestHook(void* ctx, NodeId client, Cycle issuedAt,
                            Cycle completedAt, std::uint16_t attempt,
                            bool measured);
    void recordRequest(NodeId client, Cycle issuedAt,
                       Cycle completedAt, bool measured);

    /** Run phase loop until pred is true or saturation; returns false
     *  when the run saturated. */
    template <typename Pred>
    bool runUntil(Pred pred);

    /** Periodic saturation / deadlock checks. */
    bool saturationCheck();

    /** Fold lanes_ and tallies_ into stats_ (idempotent: recomputes
     *  from scratch). Accumulators merge over a fixed-shape pairwise
     *  tree whose shape depends only on the node count, so the merged
     *  floating-point values are byte-identical for every kernel
     *  and shard count. */
    void reduceStats();

    /** The warm-up / measure / drain phases (body of run()). */
    void runPhases();

    /** The closed-loop phase loop: warm up on issued requests,
     *  measure a request quota, then drain until every measured
     *  request completed or failed (retries keep running after new
     *  issues stop). */
    void runClosedLoopPhases();

    SimConfig cfg_;
    Topology topo_;
    RoutingAlgorithmPtr algo_;
    RoutingTablePtr table_;
    TrafficPatternPtr pattern_;
    std::unique_ptr<Network> net_;
    int escape_vcs_;

    SimStats stats_;
    std::vector<DeliveryLane> lanes_;  //!< indexed by destination node
    std::vector<ShardTally> tallies_;  //!< indexed by owning shard
    std::vector<RequestLane> request_lanes_; //!< by client node
    bool measuring_window_ = false;
    Cycle measure_start_ = 0;
    Cycle measure_end_ = 0;
    std::uint64_t window_flits_ = 0;

    // Deadlock watchdog state.
    std::uint64_t last_progress_count_ = 0;
    Cycle last_progress_cycle_ = 0;
};

} // namespace lapses

#endif // LAPSES_CORE_SIMULATION_HPP
