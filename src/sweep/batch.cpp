#include "sweep/batch.hpp"

#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sweep/journal.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace stamp::sweep {
namespace {

/// Same validation (and same error text) as the axis_int lookup in
/// setup_point, applied to an already-decoded axis value.
int checked_axis_int(double v, std::string_view name) {
  if (!std::isfinite(v) ||
      v < static_cast<double>(std::numeric_limits<int>::min()) ||
      v > static_cast<double>(std::numeric_limits<int>::max()))
    throw std::invalid_argument("sweep: axis '" + std::string(name) +
                                "' value is not representable as int");
  return static_cast<int>(v);
}

std::uint64_t next_evaluator_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

std::size_t cache_shards(const Pool* pool) noexcept {
  return pool != nullptr ? static_cast<std::size_t>(pool->threads()) * 8 : 16;
}

std::optional<CostCache> grid_cache(const SweepConfig& cfg, const Pool* pool) {
  std::optional<CostCache> cache;
  if (!cfg.grid.tuples_distinct())
    cache.emplace(cache_shards(pool), cfg.cache_entries_per_shard);
  return cache;
}

/// Per-thread reusable state. Everything is sized once (to kBatch) and reused
/// for every sub-batch the thread processes; the vectors only ever grow, so
/// the hot path performs no allocation once warm. `owner` ties the cached
/// machine/profile state to one evaluator instance: pool worker threads
/// outlive sweeps, so scratch from a previous sweep must never leak into the
/// next one.
struct BatchEvaluator::Scratch {
  std::uint64_t owner = 0;

  // The machine-group cache: the resolved setup of the most recent point,
  // reused while the machine-axis values repeat (bit-compared — consecutive
  // grid points decode the same slow-axis doubles bit-for-bit).
  PointSetup setup;
  models::ClassicalParams cp{};
  std::array<double, 5> machine_axis_values{};
  bool machine_valid = false;
  /// Index of `cp` in `cps` for the current sub-batch (-1 = not registered).
  int cp_slot = -1;

  // The placement memo: `uniform_placement_cost(n)` reads only the machine,
  // the profile (κ), the strategy and n, so its result is kept per candidate
  // n while those stay the same. `memo_tag` names the current (machine, κ
  // bits, strategy) key; `setup_current` bumps it whenever the key changes,
  // which invalidates every entry at once without touching them. Tags only
  // grow, and 0 is never current, so a fresh entry is never taken as valid.
  struct MemoEntry {
    std::uint64_t tag = 0;
    PointCost cost{};
  };
  std::vector<MemoEntry> memo;  ///< indexed by candidate process count n
  std::uint64_t memo_tag = 0;
  std::uint64_t memo_kappa_bits = 0;
  PlacementStrategy memo_strategy = PlacementStrategy::FillFirst;

  /// Points this thread priced without a cache (cache == nullptr).
  std::uint64_t uncached = 0;

  // Structure-of-arrays staging for one sub-batch.
  std::vector<double> soa;               ///< axis-major decode (naxes × m)
  std::vector<unsigned char> evaluated;  ///< 1 = point produced a record
  std::vector<int> mgroup;               ///< per-slot index into `cps`
  std::vector<models::ClassicalParams> cps;  ///< machine groups this sub-batch
  std::vector<double> rs_local;
  std::vector<double> rs_msgs_out;
  std::vector<double> rs_msgs_in;
  std::vector<double> rs_shm_reads;
  std::vector<double> rs_shm_writes;
  std::vector<double> rs_max_loc;
  std::vector<double> model_out;

  // Placement-kernel scratch (per candidate process count).
  std::vector<int> candidates;
  std::vector<Cost> by_size;          ///< cost of a process in a g-group
  std::vector<double> power_by_size;
  std::vector<double> per_proc;
  std::vector<int> group_count;
  std::vector<int> proc_of;
  std::vector<std::size_t> order;
  std::vector<double> solo_power;
};

BatchEvaluator::BatchEvaluator(const SweepConfig& cfg, CostCache* cache,
                               const SweepOptions& options,
                               std::size_t record_offset)
    : cfg_(&cfg),
      cache_(cache),
      options_(options),
      id_(next_evaluator_id()),
      offset_(record_offset),
      naxes_(cfg.grid.axes().size()),
      ax_cores_(cfg.grid.axis_index(axes::kCores)),
      ax_tpc_(cfg.grid.axis_index(axes::kThreadsPerCore)),
      ax_ell_(cfg.grid.axis_index(axes::kEllE)),
      ax_le_(cfg.grid.axis_index(axes::kLE)),
      ax_gsh_(cfg.grid.axis_index(axes::kGShE)),
      ax_kappa_(cfg.grid.axis_index(axes::kKappa)),
      ax_place_(cfg.grid.axis_index(axes::kPlacement)),
      ax_procs_(cfg.grid.axis_index(axes::kProcesses)) {}

BatchEvaluator::Scratch& BatchEvaluator::scratch() const {
  thread_local Scratch sc;
  if (sc.owner != id_) {
    sc.owner = id_;
    sc.machine_valid = false;
    sc.cp_slot = -1;
    if (sc.soa.size() < naxes_ * kBatch) sc.soa.resize(naxes_ * kBatch);
    if (sc.evaluated.size() < kBatch) {
      sc.evaluated.resize(kBatch);
      sc.mgroup.resize(kBatch);
      sc.rs_local.resize(kBatch);
      sc.rs_msgs_out.resize(kBatch);
      sc.rs_msgs_in.resize(kBatch);
      sc.rs_shm_reads.resize(kBatch);
      sc.rs_shm_writes.resize(kBatch);
      sc.rs_max_loc.resize(kBatch);
      sc.model_out.resize(kBatch);
    }
  }
  return sc;
}

/// The first failure of a run, shared by every worker evaluating it.
struct BatchEvaluator::Failure {
  std::mutex mutex;
  std::exception_ptr first;

  void record() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!first) first = std::current_exception();
  }
};

std::uint64_t BatchEvaluator::run(Pool* pool, std::size_t begin,
                                  std::size_t end,
                                  std::span<SweepRecord> records) {
  Failure failure;
  std::atomic<std::uint64_t> journaled{0};
  const auto body = [&](std::size_t lo, std::size_t hi) {
    journaled.fetch_add(run_range(begin + lo, begin + hi, records, failure),
                        std::memory_order_relaxed);
  };
  try {
    if (pool != nullptr)
      pool->parallel_for_ranges(end - begin, body, options_.cancel);
    else
      body(0, end - begin);
  } catch (...) {
    failure.record();  // a range-level error (decode, journal I/O)
  }
  // A failed run must not lose the points that did complete: make the
  // journal tail durable before the error reaches the caller.
  if (options_.journal != nullptr) options_.journal->sync();
  if (failure.first) std::rethrow_exception(failure.first);
  return journaled.load(std::memory_order_relaxed);
}

std::uint64_t BatchEvaluator::run_range(std::size_t begin, std::size_t end,
                                        std::span<SweepRecord> records,
                                        Failure& failure) {
  Scratch& sc = scratch();
  const std::uint64_t uncached_before = sc.uncached;
  std::uint64_t journaled = 0;
  for (std::size_t b = begin; b < end; b += kBatch) {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) break;
    const std::size_t e = std::min(end, b + kBatch);
    journaled += run_subbatch(b, e, records, failure, sc);
  }
  // One shared add per claimed range, not per point.
  if (sc.uncached != uncached_before)
    uncached_.fetch_add(sc.uncached - uncached_before,
                        std::memory_order_relaxed);
  return journaled;
}

std::uint64_t BatchEvaluator::run_subbatch(std::size_t begin, std::size_t end,
                                           std::span<SweepRecord> records,
                                           Failure& failure, Scratch& sc) {
  const std::size_t m = end - begin;
  cfg_->grid.decode_chunk(begin, end,
                          std::span<double>(sc.soa.data(), naxes_ * m));
  std::fill_n(sc.evaluated.begin(), m, static_cast<unsigned char>(0));
  sc.cps.clear();
  sc.cp_slot = -1;

  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t idx = begin + i;
    if (options_.cancel != nullptr && options_.cancel->cancelled()) break;
    if (options_.resume != nullptr && options_.resume->completed(idx))
      continue;
    SweepRecord& rec = records[idx - offset_];
    try {
      evaluate_one(idx, i, m, rec, sc);
      sc.evaluated[i] = 1;
    } catch (...) {
      // A failed point leaves the default record; the run goes on.
      rec = SweepRecord{};
      failure.record();
    }
  }

  // Classical baselines must land in the records before they are journaled —
  // the journal serializes complete records.
  finalize_classical(begin, m, records, sc);

  std::uint64_t journaled = 0;
  if (options_.journal != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      if (sc.evaluated[i] == 0) continue;
      options_.journal->append(records[begin + i - offset_]);
      ++journaled;
    }
  }
  return journaled;
}

void BatchEvaluator::evaluate_one(std::size_t index, std::size_t slot,
                                  std::size_t count, SweepRecord& rec,
                                  Scratch& sc) {
  rec.index = index;
  rec.params.resize(naxes_);
  const double* soa = sc.soa.data();
  for (std::size_t a = 0; a < naxes_; ++a)
    rec.params[a] = soa[a * count + slot];

  // Durability hooks fire per index, exactly like the scalar path: the
  // injection site decides before any work (an injected point emits no
  // span), the watchdog covers the expensive part of the evaluation.
  if (fault::injection_enabled() &&
      fault::Injector::current().decide(fault::FaultSite::SweepPointFail,
                                       static_cast<std::uint64_t>(index)))
    throw fault::SweepPointFailure(index);
  std::optional<fault::RetryState> watchdog;
  if (options_.point_deadline.count() > 0) {
    fault::RetryPolicy policy;
    policy.deadline = options_.point_deadline;
    watchdog.emplace(policy, static_cast<std::uint64_t>(index));
  }
  obs::ScopedSpan span = obs::ScopedSpan::if_enabled("sweep.point", "sweep");
  span.arg("index", static_cast<double>(index));

  setup_current(rec, sc);

  // At most one cache probe per point: all four metrics derive from the one
  // (T, E) pair. Without a cache (a grid whose tuples are all distinct, where
  // no probe could hit) the point is priced directly.
  PointCost pc;
  if (cache_ != nullptr) {
    pc = cache_->get_or_compute(rec.params,
                                [&] { return compute_uniform_point(sc); });
  } else {
    pc = compute_uniform_point(sc);
    ++sc.uncached;
  }
  rec.feasible = pc.feasible;
  rec.processes = pc.processes;
  rec.metrics.D = metric_value(pc.cost, Objective::D);
  rec.metrics.PDP = metric_value(pc.cost, Objective::PDP);
  rec.metrics.EDP = metric_value(pc.cost, Objective::EDP);
  rec.metrics.ED2P = metric_value(pc.cost, Objective::ED2P);

  // Stage the per-process round for the deferred classical batch.
  const ProcessProfile per_process =
      strong_scaled(sc.setup.profile, rec.processes);
  sc.rs_local[slot] = per_process.c_fp + per_process.c_int;
  sc.rs_msgs_out[slot] = per_process.m_s;
  sc.rs_msgs_in[slot] = per_process.m_r;
  sc.rs_shm_reads[slot] = per_process.d_r;
  sc.rs_shm_writes[slot] = per_process.d_w;
  sc.rs_max_loc[slot] = per_process.kappa;
  if (sc.cp_slot < 0) {
    sc.cps.push_back(sc.cp);
    sc.cp_slot = static_cast<int>(sc.cps.size()) - 1;
  }
  sc.mgroup[slot] = sc.cp_slot;

  if (watchdog.has_value() && watchdog->deadline_passed()) {
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global()
          .counter("sweep.point_deadline_exceeded")
          .add();
    throw fault::DeadlineExceeded();
  }
}

void BatchEvaluator::setup_current(const SweepRecord& rec, Scratch& sc) const {
  const std::array<int, 5> machine_axes{ax_cores_, ax_tpc_, ax_ell_, ax_le_,
                                        ax_gsh_};
  bool same = sc.machine_valid;
  if (same) {
    for (std::size_t k = 0; k < machine_axes.size(); ++k) {
      const int a = machine_axes[k];
      if (a < 0) continue;
      // Bit comparison, not ==: the cache must key on the decoded value
      // exactly (and a NaN axis value must never look equal to itself —
      // though a NaN machine never validates, so it is never cached).
      const double axis_value = rec.params[static_cast<std::size_t>(a)];
      if (std::bit_cast<std::uint64_t>(axis_value) !=
          std::bit_cast<std::uint64_t>(sc.machine_axis_values[k])) {
        same = false;
        break;
      }
    }
  }
  if (!same) {
    sc.machine_valid = false;  // stays false if setup_point throws
    sc.setup = setup_point(*cfg_, rec.params);
    sc.cp = models::classical_from_machine(sc.setup.machine.params);
    for (std::size_t k = 0; k < machine_axes.size(); ++k) {
      const int a = machine_axes[k];
      sc.machine_axis_values[k] =
          a >= 0 ? rec.params[static_cast<std::size_t>(a)] : 0.0;
    }
    sc.machine_valid = true;
    sc.cp_slot = -1;  // new machine -> new classical-params group
    // setup_point resolved the per-point fields too.
  } else {
    // Machine unchanged: re-resolve only the point-varying fields, with the
    // same validation (and error text) setup_point applies.
    PointSetup& s = sc.setup;
    s.profile = cfg_->profile;
    if (ax_kappa_ >= 0)
      s.profile.kappa = rec.params[static_cast<std::size_t>(ax_kappa_)];

    int proc_bound = cfg_->processes;
    if (ax_procs_ >= 0)
      proc_bound = checked_axis_int(
          rec.params[static_cast<std::size_t>(ax_procs_)], axes::kProcesses);
    if (proc_bound < 1)
      throw std::invalid_argument(
          "sweep: processes axis value must be >= 1, got " +
          std::to_string(proc_bound));
    s.processes = std::min(proc_bound, s.machine.topology.total_threads());

    int code = static_cast<int>(PlacementStrategy::FillFirst);
    if (ax_place_ >= 0)
      code = checked_axis_int(rec.params[static_cast<std::size_t>(ax_place_)],
                              axes::kPlacement);
    if (code < 0 || code > static_cast<int>(PlacementStrategy::Greedy))
      throw std::invalid_argument("sweep: unknown placement strategy code " +
                                  std::to_string(code));
    s.strategy = static_cast<PlacementStrategy>(code);
  }

  // The placement memo stays valid while the machine, κ (bit for bit) and
  // the strategy stay the same.
  const PointSetup& s = sc.setup;
  const auto kappa_bits = std::bit_cast<std::uint64_t>(s.profile.kappa);
  if (!same || kappa_bits != sc.memo_kappa_bits ||
      s.strategy != sc.memo_strategy) {
    sc.memo_tag += 1;
    sc.memo_kappa_bits = kappa_bits;
    sc.memo_strategy = s.strategy;
  }
}

PointCost BatchEvaluator::compute_uniform_point(Scratch& sc) const {
  // Identical selection to the scalar reference: powers of two below the
  // bound, then the bound; feasible candidates preferred, then the objective.
  const PointSetup& s = sc.setup;
  const int limit = std::max(1, std::min(s.processes,
                                         s.machine.topology.total_threads()));
  sc.candidates.clear();
  for (int n = 1; n < limit; n *= 2) sc.candidates.push_back(n);
  sc.candidates.push_back(limit);

  PointCost best{};
  bool have = false;
  if (sc.memo.size() <= static_cast<std::size_t>(limit))
    sc.memo.resize(static_cast<std::size_t>(limit) + 1);
  for (const int n : sc.candidates) {
    Scratch::MemoEntry& m = sc.memo[static_cast<std::size_t>(n)];
    if (m.tag != sc.memo_tag) {
      m.cost = uniform_placement_cost(n, sc);
      m.tag = sc.memo_tag;
    }
    const PointCost& c = m.cost;
    const bool better_feasibility = c.feasible && !best.feasible;
    const bool same_feasibility = c.feasible == best.feasible;
    if (!have || better_feasibility ||
        (same_feasibility && metric_value(c.cost, cfg_->objective) <
                                 metric_value(best.cost, cfg_->objective))) {
      best = c;
      have = true;
    }
  }
  return best;
}

PointCost BatchEvaluator::uniform_placement_cost(int n, Scratch& sc) const {
  const MachineModel& machine = sc.setup.machine;
  const Topology& topo = machine.topology;
  const int procs = topo.total_processors();
  const int tpp = topo.threads_per_processor;
  const ProcessProfile prof = strong_scaled(sc.setup.profile, n);

  // All n processes are identical, so a process's cost depends only on its
  // group size — price each size once in a tight closed-form loop instead of
  // once per process. These calls produce bit-identical values to the ones
  // the scalar path computed per process, so every downstream max / sum /
  // comparison sees the same doubles in the same order.
  const int gmax = std::min(tpp, n);
  sc.by_size.resize(static_cast<std::size_t>(gmax) + 1);
  sc.power_by_size.resize(static_cast<std::size_t>(gmax) + 1);
  for (int g = 1; g <= gmax; ++g)
    sc.by_size[static_cast<std::size_t>(g)] =
        process_cost_in_group(prof, g, n, machine);
  for (int g = 1; g <= gmax; ++g)
    sc.power_by_size[static_cast<std::size_t>(g)] =
        sc.by_size[static_cast<std::size_t>(g)].power();

  // Resolve each process's processor exactly as place_* would.
  sc.proc_of.assign(static_cast<std::size_t>(n), 0);
  switch (sc.setup.strategy) {
    case PlacementStrategy::FillFirst:
      for (int i = 0; i < n; ++i)
        sc.proc_of[static_cast<std::size_t>(i)] = i / tpp;
      break;
    case PlacementStrategy::RoundRobin:
      for (int i = 0; i < n; ++i)
        sc.proc_of[static_cast<std::size_t>(i)] = i % procs;
      break;
    case PlacementStrategy::Greedy:
      greedy_assign(n, sc);
      break;
  }
  sc.group_count.assign(static_cast<std::size_t>(procs), 0);
  for (int i = 0; i < n; ++i)
    ++sc.group_count[static_cast<std::size_t>(
        sc.proc_of[static_cast<std::size_t>(i)])];

  // evaluate_placement + check_system, fused: accumulate total time/energy,
  // per-processor power and system power in the original process order (each
  // accumulator sees the same addition sequence, so the sums are bit-equal).
  sc.per_proc.assign(static_cast<std::size_t>(procs), 0.0);
  Cost total{};
  double system_power = 0;
  for (int i = 0; i < n; ++i) {
    const int p = sc.proc_of[static_cast<std::size_t>(i)];
    const int g = sc.group_count[static_cast<std::size_t>(p)];
    const Cost& c = sc.by_size[static_cast<std::size_t>(g)];
    total.time = std::max(total.time, c.time);
    total.energy += c.energy;
    const double pw = sc.power_by_size[static_cast<std::size_t>(g)];
    sc.per_proc[static_cast<std::size_t>(p)] += pw;
    system_power += pw;
  }

  const PowerEnvelope& env = machine.envelope;
  bool procs_ok = true;
  if (env.per_processor > 0) {
    for (int p = 0; p < procs; ++p) {
      if (!(sc.per_proc[static_cast<std::size_t>(p)] <= env.per_processor)) {
        procs_ok = false;
        break;
      }
    }
  }
  bool chips_ok = true;
  if (env.per_chip > 0) {
    for (int chip = 0; chip < topo.chips; ++chip) {
      double chip_demand = 0;
      for (int p = 0; p < topo.processors_per_chip; ++p)
        chip_demand += sc.per_proc[static_cast<std::size_t>(
            chip * topo.processors_per_chip + p)];
      if (chip_demand > env.per_chip) chips_ok = false;
    }
  }
  bool system_ok = true;
  if (env.system > 0) system_ok = system_power <= env.system;

  return PointCost{total, chips_ok && system_ok && procs_ok, n};
}

void BatchEvaluator::greedy_assign(int n, Scratch& sc) const {
  const MachineModel& machine = sc.setup.machine;
  const int procs = machine.topology.total_processors();
  const int tpp = machine.topology.threads_per_processor;

  // place_greedy sorts by descending solo power. Uniform profiles make every
  // key equal, so the comparator never returns true — but the permutation
  // std::sort produces is still implementation-defined, so run the *same*
  // sort over the same iota sequence with the same comparator shape to get
  // the same order the scalar path got.
  sc.order.resize(static_cast<std::size_t>(n));
  std::iota(sc.order.begin(), sc.order.end(), std::size_t{0});
  sc.solo_power.assign(static_cast<std::size_t>(n), sc.power_by_size[1]);
  std::sort(sc.order.begin(), sc.order.end(),
            [&](std::size_t a, std::size_t b) {
              return sc.solo_power[a] > sc.solo_power[b];
            });

  sc.group_count.assign(static_cast<std::size_t>(procs), 0);
  const double cap = machine.envelope.per_processor;
  for (const std::size_t idx : sc.order) {
    bool placed = false;
    for (int p = 0; p < procs && !placed; ++p) {
      const int k = sc.group_count[static_cast<std::size_t>(p)];
      if (k >= tpp) continue;
      bool ok = true;
      if (cap > 0) {
        // group_feasible on a candidate group of k+1 identical members.
        double demand = 0;
        const double pw = sc.power_by_size[static_cast<std::size_t>(k) + 1];
        for (int j = 0; j <= k; ++j) demand += pw;
        ok = demand <= cap;
      }
      if (ok) {
        sc.group_count[static_cast<std::size_t>(p)] = k + 1;
        sc.proc_of[idx] = p;
        placed = true;
      }
    }
    if (!placed) {
      // No feasible slot: emptiest processor with room (same tie-break).
      int best = -1;
      for (int p = 0; p < procs; ++p) {
        const int sz = sc.group_count[static_cast<std::size_t>(p)];
        if (sz < tpp &&
            (best < 0 || sz < sc.group_count[static_cast<std::size_t>(best)]))
          best = p;
      }
      ++sc.group_count[static_cast<std::size_t>(best)];
      sc.proc_of[idx] = best;
    }
  }
}

void BatchEvaluator::finalize_classical(std::size_t base, std::size_t count,
                                        std::span<SweepRecord> records,
                                        Scratch& sc) {
  std::size_t i = 0;
  while (i < count) {
    if (sc.evaluated[i] == 0) {
      ++i;
      continue;
    }
    // Extend over the run of evaluated points sharing one machine group, so
    // the model parameters are loop-invariant across the whole span.
    const int grp = sc.mgroup[i];
    std::size_t j = i + 1;
    while (j < count && sc.evaluated[j] != 0 && sc.mgroup[j] == grp) ++j;
    const std::size_t len = j - i;

    models::RoundSpecBatch batch;
    batch.local_ops = {sc.rs_local.data() + i, len};
    batch.msgs_out = {sc.rs_msgs_out.data() + i, len};
    batch.msgs_in = {sc.rs_msgs_in.data() + i, len};
    batch.shm_reads = {sc.rs_shm_reads.data() + i, len};
    batch.shm_writes = {sc.rs_shm_writes.data() + i, len};
    batch.max_location_accesses = {sc.rs_max_loc.data() + i, len};
    const models::ClassicalParams& cp = sc.cps[static_cast<std::size_t>(grp)];
    for (int k = 0; k < models::kModelKindCount; ++k) {
      models::round_time_batch(static_cast<models::ModelKind>(k), batch, cp,
                               std::span<double>(sc.model_out.data(), len));
      for (std::size_t t = 0; t < len; ++t)
        records[base + i + t - offset_].classical[static_cast<std::size_t>(k)] =
            sc.model_out[t];
    }
    i = j;
  }
}

}  // namespace stamp::sweep
