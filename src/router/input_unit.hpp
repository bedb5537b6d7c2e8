/**
 * @file
 * Router input unit: per-VC flit buffers and routing state.
 *
 * One InputUnit per input port holds the VC demultiplexer's buffers
 * (Section 2.1) and, per VC, the header's progress through the routing
 * pipeline: Idle -> WaitArb (after decode and, without look-ahead, table
 * lookup) -> Active (path selected, output VC allocated) until the tail
 * passes.
 */

#ifndef LAPSES_ROUTER_INPUT_UNIT_HPP
#define LAPSES_ROUTER_INPUT_UNIT_HPP

#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"
#include "routing/route_candidates.hpp"

namespace lapses
{

/** Routing progress of the message currently owning an input VC. */
enum class RouteState : std::uint8_t
{
    Idle,    //!< no header being routed on this VC
    WaitArb, //!< header at selection-cum-arbitration stage (retries)
    Active,  //!< path allocated; body/tail flits use the bypass path
};

/** Per-virtual-channel input state. */
struct InputVc
{
    explicit InputVc(std::size_t depth) : buffer(depth) {}

    /** Input flit FIFO (Table 2: 20 flits deep by default). */
    RingBuffer<Flit> buffer;

    RouteState state = RouteState::Idle;

    /** Earliest cycle the header may attempt selection/arbitration. */
    Cycle arbEligibleAt = 0;

    /** The message owning this VC while state != Idle. Lets the fault
     *  path find a cut worm even when every one of its flits is
     *  momentarily buffered elsewhere (see Network fault handling). */
    MsgRef msg = kInvalidMsgRef;

    /** Routing-table candidates for the header (from the look-ahead
     *  header payload or the local table-lookup stage). */
    RouteCandidates route;

    /** While the header is parked (every live candidate blocked): the
     *  live candidate ports, any of which gaining a free VC wakes it. */
    std::uint64_t parkedOn = 0;

    /** Allocated crossbar output once Active. */
    PortId outPort = kInvalidPort;
    VcId outVc = kInvalidVc;
};

/** Input port: VC demux + buffers. */
class InputUnit
{
  public:
    InputUnit(int num_vcs, std::size_t buf_depth)
    {
        vcs_.reserve(static_cast<std::size_t>(num_vcs));
        for (int v = 0; v < num_vcs; ++v)
            vcs_.emplace_back(buf_depth);
    }

    int numVcs() const { return static_cast<int>(vcs_.size()); }

    InputVc& vc(VcId v) { return vcs_[static_cast<std::size_t>(v)]; }
    const InputVc&
    vc(VcId v) const
    {
        return vcs_[static_cast<std::size_t>(v)];
    }

    /**
     * Accept a flit from the link (stage 1: sync/demux/buffer/decode).
     * The flit becomes actionable one cycle later.
     */
    void
    receiveFlit(VcId v, Flit flit, Cycle now)
    {
        flit.readyAt = now + 1;
        vc(v).buffer.push(flit);
    }

    /** Total buffered flits across VCs (diagnostics). */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const auto& v : vcs_)
            n += v.buffer.size();
        return n;
    }

  private:
    std::vector<InputVc> vcs_;
};

} // namespace lapses

#endif // LAPSES_ROUTER_INPUT_UNIT_HPP
