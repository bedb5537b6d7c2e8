/**
 * @file
 * Router output unit: per-VC output FIFOs, credit counters, and the two
 * arbitration points (crossbar output arbitration and VC multiplexing).
 *
 * The unit also maintains the per-physical-channel usage statistics the
 * path-selection heuristics consume: cumulative use count (LFU), last
 * use cycle (LRU), allocated-VC count (MIN-MUX) and credit totals
 * (MAX-CREDIT).
 */

#ifndef LAPSES_ROUTER_OUTPUT_UNIT_HPP
#define LAPSES_ROUTER_OUTPUT_UNIT_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "router/arbiter.hpp"
#include "router/flit.hpp"

namespace lapses
{

/** Per-virtual-channel output state. Ownership and credits are
 *  written only through OutputUnit, which keeps its per-port masks in
 *  step with them. */
class OutputVc
{
  public:
    OutputVc(std::size_t depth, int initial_credits)
        : buffer(depth), credits_(initial_credits)
    {}

    /** Output flit FIFO ahead of the VC multiplexer. */
    RingBuffer<Flit> buffer;

    /** Downstream input-buffer credits for this VC. */
    int credits() const { return credits_; }

    /** Allocated to an in-flight message (cleared when its tail is
     *  transmitted). */
    bool busy() const { return busy_; }

    /** The message owning this VC while busy (fault-path discovery of
     *  worms cut by a dying link). */
    MsgRef msg() const { return msg_; }

  private:
    friend class OutputUnit;

    int credits_;
    bool busy_ = false;
    MsgRef msg_ = kInvalidMsgRef;
};

/**
 * Output port: crossbar output + VC mux + link credit bookkeeping.
 *
 * VC availability is kept as bitmasks so every question the router
 * asks per header per cycle is a load or a popcount: `free` holds the
 * VCs a new message may allocate, `busy` the allocated ones, next to
 * a running credit total. Every write to a VC's ownership or credits
 * goes through acquire / release / returnCredit / consumeCredit /
 * resetCredits; the three that can free a VC report when they did.
 */
class OutputUnit
{
  public:
    /**
     * @param num_vcs          VCs on the physical channel (<= 64)
     * @param buf_depth        output FIFO depth per VC
     * @param initial_credits  downstream input buffer depth (a VC is
     *                         reallocatable only at this many credits)
     * @param xbar_requesters  input VC id space for crossbar arbitration
     * @param infinite_credits ejection port: the NIC sink never
     *                         backpressures
     */
    OutputUnit(int num_vcs, std::size_t buf_depth, int initial_credits,
               int xbar_requesters, bool infinite_credits)
        : xbarArb(xbar_requesters), muxArb(num_vcs),
          full_credits_(initial_credits),
          total_credits_(num_vcs * initial_credits),
          infinite_credits_(infinite_credits)
    {
        LAPSES_ASSERT(num_vcs >= 1 && num_vcs <= 64);
        vcs_.reserve(static_cast<std::size_t>(num_vcs));
        for (int v = 0; v < num_vcs; ++v)
            vcs_.emplace_back(buf_depth, initial_credits);
        free_mask_ = ~std::uint64_t{0} >> (64 - num_vcs);
    }

    int numVcs() const { return static_cast<int>(vcs_.size()); }

    OutputVc& vc(VcId v) { return vcs_[static_cast<std::size_t>(v)]; }
    const OutputVc&
    vc(VcId v) const
    {
        return vcs_[static_cast<std::size_t>(v)];
    }

    /** Credits available for transmitting on VC v. */
    bool
    canTransmit(VcId v) const
    {
        return infinite_credits_ || vc(v).credits_ > 0;
    }

    /**
     * VCs a new message may allocate: no message owns them and the
     * downstream buffer has fully drained (conservative VC
     * reallocation, as in the T3E), which guarantees messages never
     * interleave within a VC buffer.
     */
    std::uint64_t freeMask() const { return free_mask_; }

    /** VCs currently allocated to a message. */
    std::uint64_t busyMask() const { return busy_mask_; }

    /** True when VC v is in freeMask(). */
    bool allocatable(VcId v) const { return (free_mask_ >> v) & 1u; }

    /** Number of VCs currently allocated: the VC-multiplexing degree
     *  (MIN-MUX's metric). */
    int activeVcCount() const { return std::popcount(busy_mask_); }

    /** Credits summed over all VCs (MAX-CREDIT's metric). */
    int totalCredits() const { return total_credits_; }

    /** A granted header takes free VC v for `msg`. */
    void
    acquire(VcId v, MsgRef msg)
    {
        OutputVc& o = vc(v);
        LAPSES_ASSERT_MSG(allocatable(v), "acquiring a VC that is not free");
        o.busy_ = true;
        o.msg_ = msg;
        busy_mask_ |= bit(v);
        free_mask_ &= ~bit(v);
    }

    /** The owning message's tail left (or the message was purged).
     *  Returns true when VC v became allocatable. */
    bool
    release(VcId v)
    {
        OutputVc& o = vc(v);
        o.busy_ = false;
        o.msg_ = kInvalidMsgRef;
        busy_mask_ &= ~bit(v);
        return refreshFree(v);
    }

    /** A credit came back for VC v. Returns true when VC v became
     *  allocatable. */
    bool
    returnCredit(VcId v)
    {
        OutputVc& o = vc(v);
        ++o.credits_;
        ++total_credits_;
        LAPSES_ASSERT_MSG(o.credits_ <= full_credits_,
                          "credit overflow: more credits than buffer "
                          "slots");
        return refreshFree(v);
    }

    /** A flit left on VC v's link (no-op on the ejection port). */
    void
    consumeCredit(VcId v)
    {
        if (infinite_credits_)
            return;
        --vc(v).credits_;
        --total_credits_;
        free_mask_ &= ~bit(v);
    }

    /** Set every VC's credits (link repair or quarantine); no VC may
     *  be allocated. Returns true when any VC became allocatable. */
    bool
    resetCredits(int credits)
    {
        LAPSES_ASSERT(busy_mask_ == 0);
        const std::uint64_t before = free_mask_;
        for (OutputVc& o : vcs_)
            o.credits_ = credits;
        total_credits_ = numVcs() * credits;
        free_mask_ = infinite_credits_ || credits == full_credits_
            ? ~std::uint64_t{0} >> (64 - numVcs())
            : 0;
        return (free_mask_ & ~before) != 0;
    }

    /** Recount the masks and the credit total from the per-VC state
     *  (invariant checks; O(VCs)). */
    bool
    masksConsistentSlow() const
    {
        std::uint64_t free = 0;
        std::uint64_t busy = 0;
        int credits = 0;
        for (VcId v = 0; v < numVcs(); ++v) {
            const OutputVc& o = vc(v);
            credits += o.credits_;
            if (o.busy_)
                busy |= bit(v);
            else if (infinite_credits_ || o.credits_ == full_credits_)
                free |= bit(v);
        }
        return free == free_mask_ && busy == busy_mask_ &&
               credits == total_credits_;
    }

    /** Flits ever transmitted through the port (LFU's counter). */
    std::uint64_t useCount() const { return use_count_; }

    /** Cycle of the most recent transmission (LRU's age input). */
    Cycle lastUseCycle() const { return last_use_cycle_; }

    /** Record a link transmission for the PSH statistics. */
    void
    recordUse(Cycle now)
    {
        ++use_count_;
        last_use_cycle_ = now;
    }

    /** Crossbar output-port arbiter (one grant per cycle). */
    RoundRobinArbiter xbarArb;

    /** VC multiplexer arbiter (one flit per cycle onto the link). */
    RoundRobinArbiter muxArb;

  private:
    static std::uint64_t bit(VcId v) { return std::uint64_t{1} << v; }

    /** Set VC v's free bit if it is allocatable; true when it is. */
    bool
    refreshFree(VcId v)
    {
        const OutputVc& o = vc(v);
        if (o.busy_ || (!infinite_credits_ && o.credits_ != full_credits_))
            return false;
        free_mask_ |= bit(v);
        return true;
    }

    std::vector<OutputVc> vcs_;
    std::uint64_t free_mask_ = 0;
    std::uint64_t busy_mask_ = 0;
    int full_credits_;
    int total_credits_;
    std::uint64_t use_count_ = 0;
    Cycle last_use_cycle_ = 0;
    bool infinite_credits_;
};

} // namespace lapses

#endif // LAPSES_ROUTER_OUTPUT_UNIT_HPP
