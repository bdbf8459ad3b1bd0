/** @file HeartbeatMonitor state machine (DESIGN.md §15): alive while
 *  beats arrive, suspect at two misses, dead at the configured
 *  threshold; late beats clear suspicion and misses are never
 *  double-booked across repeated checks. */

#include <gtest/gtest.h>

#include "core/control.hh"

namespace isw::core {
namespace {

using State = HeartbeatMonitor::State;

constexpr sim::TimeNs kP = 5 * sim::kMsec;

TEST(Heartbeat, StaysAliveWhileBeatsArrive)
{
    HeartbeatMonitor m;
    m.configure(kP, 3, 0);
    for (int i = 1; i <= 10; ++i) {
        m.beat(i * kP);
        EXPECT_EQ(m.check(i * kP + kP / 2), State::kAlive);
    }
    EXPECT_EQ(m.beats(), 10u);
    EXPECT_EQ(m.missed(), 0u);
}

TEST(Heartbeat, EscalatesSuspectThenDead)
{
    HeartbeatMonitor m;
    m.configure(kP, 3, 0);
    m.beat(kP);
    EXPECT_EQ(m.check(kP + 1 * kP), State::kAlive); // one miss: grace
    EXPECT_EQ(m.check(kP + 2 * kP), State::kSuspect);
    EXPECT_EQ(m.check(kP + 3 * kP), State::kDead);
    EXPECT_EQ(m.missed(), 3u);
}

TEST(Heartbeat, LateBeatClearsSuspicion)
{
    HeartbeatMonitor m;
    m.configure(kP, 3, 0);
    m.beat(kP);
    EXPECT_EQ(m.check(3 * kP), State::kSuspect);
    m.beat(3 * kP); // the primary was only slow, not dead
    EXPECT_EQ(m.check(3 * kP + kP / 2), State::kAlive);
    EXPECT_EQ(m.missed(), 2u); // the two misses stay booked
}

TEST(Heartbeat, RepeatedChecksDoNotDoubleBookMisses)
{
    HeartbeatMonitor m;
    m.configure(kP, 5, 0);
    m.beat(kP);
    EXPECT_EQ(m.check(kP + 2 * kP), State::kSuspect);
    EXPECT_EQ(m.check(kP + 2 * kP), State::kSuspect);
    EXPECT_EQ(m.check(kP + 3 * kP), State::kSuspect);
    EXPECT_EQ(m.missed(), 3u); // 2 then +1, never 2+2+3
}

TEST(Heartbeat, ConfigureBaselinesThePrimaryAsAlive)
{
    HeartbeatMonitor m;
    m.configure(kP, 3, 40 * sim::kMsec);
    // No beat ever arrived, but the baseline anchors the miss count.
    EXPECT_EQ(m.check(41 * sim::kMsec), State::kAlive);
    EXPECT_EQ(m.check(40 * sim::kMsec + 3 * kP), State::kDead);
}

} // namespace
} // namespace isw::core
