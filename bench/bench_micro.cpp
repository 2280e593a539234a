/// P1 — google-benchmark microbenchmarks of the substrates the STAMP runtime
/// is built from: mailbox send/receive, barriers, STM commit paths, queued
/// cells, the SWMR matrix, the cost-model evaluators, and the machine
/// simulator's replay loop.

#include "core/core.hpp"
#include "machine/simulator.hpp"
#include "msg/mailbox.hpp"
#include "runtime/barrier.hpp"
#include "shm/shared_region.hpp"
#include "shm/swmr_matrix.hpp"
#include "stm/stm.hpp"
#include "msg/collectives.hpp"
#include "runtime/quiescence.hpp"
#include "report/table.hpp"

#include <benchmark/benchmark.h>

#include <sstream>
#include <thread>

namespace {

using namespace stamp;

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

void BM_MailboxSendReceive(benchmark::State& state) {
  msg::Mailbox<int> box;
  for (auto _ : state) {
    box.send(42);
    benchmark::DoNotOptimize(box.receive());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxSendReceive);

void BM_MailboxThroughputMPMC(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    msg::Mailbox<int> box;
    std::vector<std::jthread> threads;
    constexpr int kPerProducer = 1000;
    for (int p = 0; p < producers; ++p)
      threads.emplace_back([&box] {
        for (int i = 0; i < kPerProducer; ++i) box.send(i);
      });
    long long sum = 0;
    for (int i = 0; i < producers * kPerProducer; ++i) sum += box.receive();
    benchmark::DoNotOptimize(sum);
    threads.clear();
    state.SetItemsProcessed(state.items_processed() + producers * kPerProducer);
  }
}
BENCHMARK(BM_MailboxThroughputMPMC)->Arg(1)->Arg(2)->Arg(4);

void BM_PhaseBarrierSingle(benchmark::State& state) {
  runtime::PhaseBarrier barrier(1);
  for (auto _ : state) barrier.arrive_and_wait();
}
BENCHMARK(BM_PhaseBarrierSingle);

void BM_SenseBarrierSingle(benchmark::State& state) {
  runtime::SenseBarrier barrier(1);
  for (auto _ : state) barrier.arrive_and_wait();
}
BENCHMARK(BM_SenseBarrierSingle);

void BM_StmReadOnlyTxn(benchmark::State& state) {
  std::atomic<std::uint64_t> clock{0};
  stm::TVar<long> v(7);
  for (auto _ : state) {
    stm::Transaction tx(clock);
    benchmark::DoNotOptimize(tx.read(v));
    tx.commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StmReadOnlyTxn);

void BM_StmReadWriteTxn(benchmark::State& state) {
  std::atomic<std::uint64_t> clock{0};
  stm::TVar<long> v(0);
  for (auto _ : state) {
    stm::Transaction tx(clock);
    tx.write(v, tx.read(v) + 1);
    tx.commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StmReadWriteTxn);

void BM_StmWriteSetSize(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  std::atomic<std::uint64_t> clock{0};
  std::vector<std::unique_ptr<stm::TVar<long>>> tvars;
  for (int i = 0; i < vars; ++i)
    tvars.push_back(std::make_unique<stm::TVar<long>>(0));
  for (auto _ : state) {
    stm::Transaction tx(clock);
    for (auto& v : tvars) tx.write(*v, tx.read(*v) + 1);
    tx.commit();
  }
  state.SetItemsProcessed(state.iterations() * vars);
}
BENCHMARK(BM_StmWriteSetSize)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_VersionedLockCycle(benchmark::State& state) {
  stm::VersionedLock lock;
  std::uint64_t version = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.try_lock(version));
    lock.unlock_to_version(++version);
  }
}
BENCHMARK(BM_VersionedLockCycle);

void BM_CostModelSRound(benchmark::State& state) {
  const CostCounters c = analysis::jacobi_round_counters(64);
  const MachineModel m = presets::niagara();
  const ProcessCounts pc{.intra = 3, .inter = 60};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s_round_cost(c, m.params, m.energy, pc));
  }
}
BENCHMARK(BM_CostModelSRound);

void BM_PlacementExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MachineModel m = presets::niagara();
  m.envelope = PowerEnvelope{};
  ProcessProfile prof;
  prof.c_fp = 100;
  prof.m_s = prof.m_r = 4;
  prof.units = 10;
  const std::vector<ProcessProfile> profiles(static_cast<std::size_t>(n), prof);
  for (auto _ : state) {
    benchmark::DoNotOptimize(place_exact_uniform(profiles, m, Objective::D));
  }
}
BENCHMARK(BM_PlacementExact)->Arg(8)->Arg(16)->Arg(32);

void BM_SimulatorReplayAllToAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const MachineModel m = presets::niagara();
  const runtime::PlacementMap pm =
      runtime::PlacementMap::one_per_processor(m.topology, n);
  std::vector<machine::ProcessTrace> traces(
      static_cast<std::size_t>(n),
      {machine::TraceOp{machine::TraceOp::Kind::Compute, 100, true, 50},
       machine::TraceOp{machine::TraceOp::Kind::MsgSend,
                        static_cast<double>(n - 1), false, 0},
       machine::TraceOp{machine::TraceOp::Kind::MsgRecv,
                        static_cast<double>(n - 1), false, 0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine::replay(traces, pm, m));
  }
}
BENCHMARK(BM_SimulatorReplayAllToAll)->Arg(2)->Arg(4)->Arg(8);

void BM_SwmrMatrixReadRow(benchmark::State& state) {
  const int n = 32;
  shm::SwmrMatrix<double> matrix(n, n, 1.0);
  const runtime::PlacementMap pm = runtime::PlacementMap::fill_first(kTopo, 1);
  runtime::Recorder rec;
  runtime::Context ctx(0, rec, pm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.read_row(ctx, 0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SwmrMatrixReadRow);

void BM_QueuedCellUpdate(benchmark::State& state) {
  shm::QueuedCell<long> cell(0);
  const runtime::PlacementMap pm = runtime::PlacementMap::fill_first(kTopo, 1);
  runtime::Recorder rec;
  runtime::Context ctx(0, rec, pm);
  for (auto _ : state) {
    cell.update(ctx, [](long& v) { ++v; });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueuedCellUpdate);

void BM_CollectiveAllReduce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    msg::Communicator<long long> comm(n, CommMode::Asynchronous);
    std::atomic<long long> sink{0};
    const auto run = runtime::run_distributed(
        kTopo, n, Distribution::IntraProc, [&](runtime::Context& ctx) {
          sink += msg::all_reduce_doubling(
              ctx, comm, static_cast<long long>(ctx.id()),
              [](long long a, long long b) { return a + b; });
        });
    benchmark::DoNotOptimize(sink.load());
    (void)run;
  }
}
BENCHMARK(BM_CollectiveAllReduce)->Arg(2)->Arg(4)->Arg(8);

void BM_QuiescenceSinglePartyRound(benchmark::State& state) {
  for (auto _ : state) {
    runtime::QuiescenceDetector qd(1);
    benchmark::DoNotOptimize(
        runtime::run_to_quiescence(qd, 0, [] { return false; }, 8));
  }
}
BENCHMARK(BM_QuiescenceSinglePartyRound);

void BM_JsonTableExport(benchmark::State& state) {
  report::Table t("bench", {"a", "b", "c"});
  for (int i = 0; i < 64; ++i)
    t.add_row({report::Cell{static_cast<long long>(i)},
               report::Cell{i * 0.5},
               report::Cell{std::string("row")}});
  for (auto _ : state) {
    std::ostringstream os;
    t.write_json(os);
    benchmark::DoNotOptimize(os.str());
  }
}
BENCHMARK(BM_JsonTableExport);

}  // namespace

BENCHMARK_MAIN();
