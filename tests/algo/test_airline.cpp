#include "algo/airline.hpp"

#include <gtest/gtest.h>

namespace stamp::algo {
namespace {

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

TEST(FlightNetwork, ConstructionValidated) {
  EXPECT_THROW(FlightNetwork(2, 10), std::invalid_argument);
  EXPECT_THROW(FlightNetwork(3, -1), std::invalid_argument);
  const FlightNetwork net(5, 10);
  EXPECT_EQ(net.leg_count(), 5);
  EXPECT_EQ(net.remaining(0), 10);
  EXPECT_EQ(net.booked_total(10), 0);
}

TEST(Reserve, AllLegsAvailableSucceeds) {
  FlightNetwork net(4, 10);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        const ReserveOutcome out =
            reserve(ctx, rt, net, {0, 1, 2}, ReservePolicy::Partial);
        EXPECT_TRUE(out.success);
        EXPECT_EQ(out.legs_committed, 3);
      });
  EXPECT_EQ(net.remaining(0), 9);
  EXPECT_EQ(net.remaining(1), 9);
  EXPECT_EQ(net.remaining(2), 9);
  EXPECT_EQ(net.remaining(3), 10);
}

TEST(Reserve, ItineraryValidated) {
  FlightNetwork net(4, 10);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        EXPECT_THROW(
            (void)reserve(ctx, rt, net, {}, ReservePolicy::Partial),
            std::invalid_argument);
        EXPECT_THROW(
            (void)reserve(ctx, rt, net, {0, 1, 2, 3}, ReservePolicy::Partial),
            std::invalid_argument);
      });
}

TEST(Reserve, NoneAvailableFails) {
  FlightNetwork net(3, 0);  // everything full
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        const ReserveOutcome out =
            reserve(ctx, rt, net, {0, 1, 2}, ReservePolicy::Partial);
        EXPECT_FALSE(out.success);
        EXPECT_EQ(out.legs_committed, 0);
      });
}

TEST(Reserve, PartialPolicyKeepsCommittedLegs) {
  FlightNetwork net(3, 1);
  // Drain leg 1 so the middle leg fails.
  net.seats(1).poke(0);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        const ReserveOutcome out =
            reserve(ctx, rt, net, {0, 1, 2}, ReservePolicy::Partial);
        // "the committed leg is not full": success with 2 of 3.
        EXPECT_TRUE(out.success);
        EXPECT_EQ(out.legs_committed, 2);
      });
  EXPECT_EQ(net.remaining(0), 0);
  EXPECT_EQ(net.remaining(1), 0);
  EXPECT_EQ(net.remaining(2), 0);
}

TEST(Reserve, AllOrNothingCompensates) {
  FlightNetwork net(3, 1);
  net.seats(1).poke(0);
  stm::StmRuntime rt;
  (void)runtime::run_distributed(
      kTopo, 1, Distribution::IntraProc, [&](runtime::Context& ctx) {
        const ReserveOutcome out =
            reserve(ctx, rt, net, {0, 1, 2}, ReservePolicy::AllOrNothing);
        EXPECT_FALSE(out.success);
        EXPECT_EQ(out.legs_committed, 0);
      });
  // The seats on legs 0 and 2 were released again.
  EXPECT_EQ(net.remaining(0), 1);
  EXPECT_EQ(net.remaining(2), 1);
}

TEST(ReservationWorkload, NeverOverbooks) {
  ReservationWorkload w;
  w.processes = 8;
  w.reservations_per_process = 400;
  w.legs = 6;
  w.seats_per_leg = 50;  // scarce: heavy competition for seats
  const ReservationRunResult r = run_reservation_workload(kTopo, w);
  EXPECT_EQ(r.overbooked_legs, 0);
  EXPECT_EQ(r.attempted,
            static_cast<long long>(w.processes) * w.reservations_per_process);
  EXPECT_EQ(r.attempted, r.succeeded + r.failed);
}

TEST(ReservationWorkload, BookedSeatsMatchLegCommits) {
  ReservationWorkload w;
  w.processes = 4;
  w.reservations_per_process = 200;
  w.legs = 8;
  w.seats_per_leg = 100;
  const ReservationRunResult r = run_reservation_workload(kTopo, w);
  FlightNetwork reference(w.legs, w.seats_per_leg);
  // Total seats decremented across the network equals legs booked.
  EXPECT_EQ(r.legs_booked, r.legs_booked);
  EXPECT_GE(r.legs_booked, r.succeeded);  // each success books >= 1 leg
  EXPECT_LE(r.legs_booked, 3 * r.attempted);
}

TEST(ReservationWorkload, AllOrNothingBooksCompleteItinerariesOnly) {
  ReservationWorkload w;
  w.processes = 6;
  w.reservations_per_process = 300;
  w.legs = 5;
  w.seats_per_leg = 40;
  w.policy = ReservePolicy::AllOrNothing;
  const ReservationRunResult r = run_reservation_workload(kTopo, w);
  EXPECT_EQ(r.overbooked_legs, 0);
  // Under all-or-nothing every success books exactly 3 legs.
  EXPECT_EQ(r.legs_booked, 3 * r.succeeded);
}

TEST(ReservationWorkload, PartialBooksAtLeastAsManySeats) {
  ReservationWorkload partial;
  partial.processes = 6;
  partial.reservations_per_process = 300;
  partial.legs = 5;
  partial.seats_per_leg = 40;
  partial.policy = ReservePolicy::Partial;
  ReservationWorkload strict = partial;
  strict.policy = ReservePolicy::AllOrNothing;
  const ReservationRunResult rp = run_reservation_workload(kTopo, partial);
  const ReservationRunResult rs = run_reservation_workload(kTopo, strict);
  // Partial commits keep seats that all-or-nothing would release.
  EXPECT_GE(rp.legs_booked, rs.legs_booked);
}

// Policy x distribution sweep: invariants must hold everywhere.
class ReservationSweep
    : public ::testing::TestWithParam<std::tuple<ReservePolicy, Distribution>> {};

TEST_P(ReservationSweep, InvariantsHold) {
  const auto [policy, dist] = GetParam();
  ReservationWorkload w;
  w.processes = 5;
  w.reservations_per_process = 200;
  w.legs = 4;
  w.seats_per_leg = 30;
  w.policy = policy;
  w.distribution = dist;
  const ReservationRunResult r = run_reservation_workload(kTopo, w);
  EXPECT_EQ(r.overbooked_legs, 0);
  EXPECT_EQ(r.attempted, r.succeeded + r.failed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReservationSweep,
    ::testing::Combine(::testing::Values(ReservePolicy::Partial,
                                         ReservePolicy::AllOrNothing),
                       ::testing::Values(Distribution::IntraProc,
                                         Distribution::InterProc)));

}  // namespace
}  // namespace stamp::algo
