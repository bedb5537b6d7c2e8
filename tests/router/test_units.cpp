/**
 * @file
 * Unit tests for router input/output units: buffering, credits, and the
 * conservative VC reallocation rule.
 */

#include <gtest/gtest.h>

#include "router/input_unit.hpp"
#include "router/output_unit.hpp"

namespace lapses
{
namespace
{

TEST(InputUnit, ReceiveStampsStageOneDelay)
{
    InputUnit in(2, 4);
    Flit f;
    f.type = FlitType::Head;
    in.receiveFlit(0, f, 10);
    EXPECT_EQ(in.vc(0).buffer.front().readyAt, 11u);
    EXPECT_EQ(in.occupancy(), 1u);
}

TEST(InputUnit, VcsAreIndependent)
{
    InputUnit in(2, 2);
    Flit f;
    in.receiveFlit(0, f, 1);
    in.receiveFlit(1, f, 1);
    in.receiveFlit(1, f, 2);
    EXPECT_EQ(in.vc(0).buffer.size(), 1u);
    EXPECT_EQ(in.vc(1).buffer.size(), 2u);
    EXPECT_EQ(in.occupancy(), 3u);
}

TEST(InputUnit, StateStartsIdle)
{
    InputUnit in(2, 2);
    EXPECT_EQ(in.vc(0).state, RouteState::Idle);
    EXPECT_EQ(in.vc(0).outPort, kInvalidPort);
    EXPECT_EQ(in.vc(0).outVc, kInvalidVc);
}

TEST(OutputUnit, InitialCreditsMatchDepth)
{
    OutputUnit out(4, 8, 20, 20, false);
    for (VcId v = 0; v < 4; ++v) {
        EXPECT_EQ(out.vc(v).credits(), 20);
        EXPECT_FALSE(out.vc(v).busy());
    }
    EXPECT_EQ(out.totalCredits(), 80);
    EXPECT_EQ(out.activeVcCount(), 0);
    EXPECT_EQ(out.freeMask(), 0b1111u);
    EXPECT_EQ(out.busyMask(), 0u);
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, AllocatableNeedsIdleAndFullCredits)
{
    OutputUnit out(2, 8, 20, 10, false);
    EXPECT_TRUE(out.allocatable(0));
    out.acquire(0, 5);
    EXPECT_FALSE(out.allocatable(0));
    EXPECT_EQ(out.vc(0).msg(), 5u);
    out.consumeCredit(0); // the worm's last flit leaves
    EXPECT_FALSE(out.release(0)) << "downstream not fully drained";
    EXPECT_FALSE(out.allocatable(0));
    EXPECT_EQ(out.vc(0).msg(), kInvalidMsgRef);
    EXPECT_TRUE(out.returnCredit(0));
    EXPECT_TRUE(out.allocatable(0));
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, ReleaseFreesOnlyAtFullCredits)
{
    OutputUnit out(2, 8, 20, 10, false);
    out.acquire(1, 3);
    EXPECT_TRUE(out.release(1)); // no flit left: credits still full
    EXPECT_TRUE(out.allocatable(1));
    out.acquire(1, 4);
    out.consumeCredit(1);
    EXPECT_FALSE(out.returnCredit(1)) << "still owned";
    EXPECT_TRUE(out.release(1));
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, EjectionPortIgnoresCredits)
{
    OutputUnit out(2, 8, 20, 10, true);
    out.acquire(0, 1);
    out.consumeCredit(0); // no-op: the NIC sink never backpressures
    EXPECT_EQ(out.vc(0).credits(), 20);
    EXPECT_TRUE(out.canTransmit(0));
    EXPECT_TRUE(out.release(0));
    EXPECT_TRUE(out.allocatable(0));
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, CanTransmitTracksCredits)
{
    OutputUnit out(2, 8, 1, 10, false);
    EXPECT_TRUE(out.canTransmit(0));
    out.consumeCredit(0);
    EXPECT_FALSE(out.canTransmit(0));
    EXPECT_EQ(out.totalCredits(), 1);
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, ActiveVcCountIsMuxDegree)
{
    OutputUnit out(4, 8, 20, 20, false);
    out.acquire(1, 1);
    out.acquire(3, 2);
    EXPECT_EQ(out.activeVcCount(), 2);
    EXPECT_EQ(out.busyMask(), 0b1010u);
    EXPECT_EQ(out.freeMask(), 0b0101u);
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, MasksTrackEveryWrite)
{
    OutputUnit out(3, 8, 2, 12, false);
    out.acquire(2, 9);
    out.consumeCredit(2);
    out.consumeCredit(0);
    EXPECT_EQ(out.totalCredits(), 4);
    EXPECT_EQ(out.freeMask(), 0b010u);
    EXPECT_TRUE(out.masksConsistentSlow());
    EXPECT_TRUE(out.returnCredit(0));
    EXPECT_FALSE(out.release(2));
    EXPECT_EQ(out.freeMask(), 0b011u);
    EXPECT_EQ(out.totalCredits(), 5);
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, ResetCreditsQuarantinesAndRevives)
{
    OutputUnit out(2, 8, 4, 10, false);
    out.consumeCredit(1);
    EXPECT_FALSE(out.resetCredits(0)); // quarantine frees nothing
    EXPECT_EQ(out.freeMask(), 0u);
    EXPECT_EQ(out.totalCredits(), 0);
    EXPECT_TRUE(out.resetCredits(4)); // repair: full credit line
    EXPECT_EQ(out.freeMask(), 0b11u);
    EXPECT_EQ(out.totalCredits(), 8);
    EXPECT_FALSE(out.resetCredits(4)) << "nothing newly freed";
    EXPECT_TRUE(out.masksConsistentSlow());
}

TEST(OutputUnit, RecordUseFeedsLfuAndLru)
{
    OutputUnit out(2, 8, 20, 10, false);
    EXPECT_EQ(out.useCount(), 0u);
    EXPECT_EQ(out.lastUseCycle(), 0u);
    out.recordUse(42);
    out.recordUse(99);
    EXPECT_EQ(out.useCount(), 2u);
    EXPECT_EQ(out.lastUseCycle(), 99u);
}

} // namespace
} // namespace lapses
