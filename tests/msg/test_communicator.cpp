#include "msg/communicator.hpp"

#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace stamp::msg {
namespace {

using runtime::Context;
using runtime::PlacementMap;
using runtime::RoundScope;
using runtime::RunResult;

const Topology kTopo{.chips = 1, .processors_per_chip = 4,
                     .threads_per_processor = 4};

TEST(Communicator, RejectsBadArguments) {
  EXPECT_THROW(Communicator<int>(0), std::invalid_argument);
  Communicator<int> comm(2);
  const PlacementMap pm =
      PlacementMap::for_distribution(kTopo, 2, Distribution::IntraProc);
  (void)runtime::run_processes(pm, [&](Context& ctx) {
    if (ctx.id() == 0) {
      EXPECT_THROW(comm.send(ctx, 5, 1), std::out_of_range);
    }
  });
}

TEST(Communicator, PointToPointDeliversWithProvenance) {
  Communicator<int> comm(2);
  (void)runtime::run_distributed(kTopo, 2, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   if (ctx.id() == 0) {
                                     comm.send(ctx, 1, 99);
                                   } else {
                                     const Envelope<int> env = comm.receive(ctx);
                                     EXPECT_EQ(env.from, 0);
                                     EXPECT_EQ(env.value, 99);
                                   }
                                 });
}

TEST(Communicator, SendCountsIntraVsInter) {
  // Fill-first on a 4-thread machine: 0-3 share a processor, 4 is alone.
  Communicator<int> comm(5);
  const RunResult r = runtime::run_distributed(
      kTopo, 5, Distribution::IntraProc, [&](Context& ctx) {
        if (ctx.id() == 0) {
          comm.send(ctx, 1, 1);  // intra
          comm.send(ctx, 4, 1);  // inter
        } else if (ctx.id() == 1 || ctx.id() == 4) {
          (void)comm.receive(ctx);
        }
      });
  const CostCounters c0 = r.recorders[0].totals();
  EXPECT_DOUBLE_EQ(c0.m_s_a, 1);
  EXPECT_DOUBLE_EQ(c0.m_s_e, 1);
  const CostCounters c1 = r.recorders[1].totals();
  EXPECT_DOUBLE_EQ(c1.m_r_a, 1);  // sender 0 is intra with 1
  const CostCounters c4 = r.recorders[4].totals();
  EXPECT_DOUBLE_EQ(c4.m_r_e, 1);  // sender 0 is inter with 4
}

TEST(Communicator, BroadcastReachesEveryPeer) {
  constexpr int kN = 6;
  Communicator<int> comm(kN);
  (void)runtime::run_distributed(kTopo, kN, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   if (ctx.id() == 0) {
                                     comm.broadcast(ctx, 7);
                                   } else {
                                     EXPECT_EQ(comm.receive(ctx).value, 7);
                                   }
                                 });
}

TEST(Communicator, ExchangeGathersAllValuesByRank) {
  constexpr int kN = 8;
  Communicator<int> comm(kN, CommMode::Synchronous);
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        const std::vector<int> values = comm.exchange(ctx, ctx.id() * 10);
        ASSERT_EQ(values.size(), static_cast<std::size_t>(kN));
        for (int i = 0; i < kN; ++i) EXPECT_EQ(values[static_cast<std::size_t>(i)], i * 10);
      });
}

TEST(Communicator, ExchangeCountsMatchJacobiFormula) {
  // n processes: each sends n-1 and receives n-1 per exchange.
  constexpr int kN = 5;
  Communicator<double> comm(kN, CommMode::Synchronous);
  const RunResult r = runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        RoundScope round(ctx.recorder());
        (void)comm.exchange(ctx, 1.0);
      });
  for (const auto& rec : r.recorders) {
    const CostCounters c = rec.totals();
    EXPECT_DOUBLE_EQ(c.m_s_a + c.m_s_e, kN - 1.0);
    EXPECT_DOUBLE_EQ(c.m_r_a + c.m_r_e, kN - 1.0);
  }
}

TEST(Communicator, RepeatedExchangesStayConsistent) {
  // Everyone folds the exchanged values the same way each round, so all
  // processes must hold identical values in lock step (unsigned arithmetic:
  // wraparound is defined).
  constexpr int kN = 4;
  constexpr int kRounds = 50;
  Communicator<unsigned> comm(kN, CommMode::Synchronous);
  std::vector<unsigned> finals(kN, 0);
  (void)runtime::run_distributed(
      kTopo, kN, Distribution::IntraProc, [&](Context& ctx) {
        unsigned value = static_cast<unsigned>(ctx.id());
        for (int round = 0; round < kRounds; ++round) {
          const std::vector<unsigned> values = comm.exchange(ctx, value);
          value = std::accumulate(values.begin(), values.end(), 0u);
        }
        finals[static_cast<std::size_t>(ctx.id())] = value;
      });
  for (int i = 1; i < kN; ++i) EXPECT_EQ(finals[0], finals[static_cast<std::size_t>(i)]);
}

TEST(Communicator, AsyncModeSkipsBarrier) {
  // Under async_comm a process may run ahead: process 0 completes two
  // exchanges' worth of sends before process 1 receives anything. With only
  // sends and try_receive this cannot deadlock.
  Communicator<int> comm(2, CommMode::Asynchronous);
  (void)runtime::run_distributed(kTopo, 2, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   if (ctx.id() == 0) {
                                     comm.send(ctx, 1, 1);
                                     comm.send(ctx, 1, 2);
                                   } else {
                                     EXPECT_EQ(comm.receive(ctx).value, 1);
                                     EXPECT_EQ(comm.receive(ctx).value, 2);
                                   }
                                 });
}

TEST(Communicator, ExplicitBarrierAligns) {
  constexpr int kN = 4;
  Communicator<int> comm(kN, CommMode::Asynchronous);
  std::atomic<int> arrived{0};
  (void)runtime::run_distributed(kTopo, kN, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   (void)ctx;
                                   arrived.fetch_add(1);
                                   comm.barrier();
                                   EXPECT_EQ(arrived.load(), kN);
                                 });
}

TEST(Communicator, CloseAllPropagates) {
  Communicator<int> comm(2);
  (void)runtime::run_distributed(kTopo, 2, Distribution::IntraProc,
                                 [&](Context& ctx) {
                                   if (ctx.id() == 0) {
                                     comm.close_all();
                                   } else {
                                     try {
                                       (void)comm.receive(ctx);
                                       // Either got closed...
                                       FAIL() << "expected MailboxClosed";
                                     } catch (const MailboxClosed&) {
                                       SUCCEED();
                                     }
                                   }
                                 });
}

}  // namespace
}  // namespace stamp::msg
