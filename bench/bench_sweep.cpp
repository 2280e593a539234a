/// P2 — sweep-engine throughput: serial evaluation vs the range-claiming
/// work-stealing `sweep::Pool`, through the structure-of-arrays batch
/// evaluator (sweep/batch.hpp).
///
/// Two grid presets:
///  - `--grid canonical` (default): the canonical 7 axes plus a `processes`
///    bound axis — 1152 points. Small enough that the table doubles as a
///    smoke check, but per-point work barely outweighs pool overhead, so
///    scaling numbers on it are noise-bound.
///  - `--grid large`: `SweepConfig::large()` — 1,179,648 streaming points.
///    This is the scaling claim: with the batch evaluator amortizing decode,
///    machine validation and placement pricing over claimed ranges (and no
///    shared cache on these all-distinct grids), parallelism
///    finally has something to chew on, and the speedup curve is expected to
///    be monotone in thread count.
///
/// The table reports wall time, points/s, speedup over serial, memoization
/// hit rate, and how many range splits were stolen. Records are verified
/// identical to the serial run at every pool width (the artifact is
/// scheduling-independent).
///
/// Besides the human-readable table, the bench emits a machine-readable
/// `BENCH_sweep.json` (`stamp-bench-sweep/v1`). Gates:
///  - `--baseline FILE`: fail if serial points/sec regresses more than 20%
///    against the checked-in baseline (grids must match — comparing presets
///    is apples to oranges).
///  - `--gate-scaling X`: fail unless pool points/sec is monotone in thread
///    count (5% noise tolerance) and the widest run that fits the hardware
///    reaches min(X, hw/2)× serial. Thread counts above the *usable*
///    hardware parallelism (`core::usable_hardware_threads`, affinity-aware)
///    are reported but never gated; on a single-core box the gate is skipped
///    outright — oversubscribed "speedup" is meaningless either way.
///
/// Usage: bench_sweep [--grid canonical|large] [--out FILE]
///                    [--baseline FILE] [--reps N] [--gate-scaling X]

#include "core/hw.hpp"
#include "report/atomic_file.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "report/table.hpp"
#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best of `reps` runs: sweep evaluation is deterministic, so the minimum is
/// the least-noisy estimate.
double best_seconds(int reps, const std::function<void()>& fn) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    const double s = seconds_of(fn);
    if (i == 0 || s < best) best = s;
  }
  return best;
}

double hit_rate_of(const stamp::sweep::SweepStats& stats) {
  const double total =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  return total > 0 ? static_cast<double>(stats.cache_hits) / total : 0.0;
}

struct PoolSample {
  int threads = 0;
  double seconds = 0;
  double points_per_sec = 0;
  double hit_rate = 0;
  std::uint64_t steals = 0;
};

/// The small bench grid: the canonical 7 axes plus a `processes` bound axis,
/// so the JSON reports throughput on an 8-axis, 1152-point design space.
stamp::sweep::SweepConfig canonical_bench_config() {
  stamp::sweep::SweepConfig cfg = stamp::sweep::SweepConfig::canonical();
  cfg.grid.axis(std::string(stamp::sweep::axes::kProcesses), {16, 64});
  cfg.workload = "uniform-comm-bench8";
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stamp;

  std::string grid_name = "canonical";
  std::string out_path = "BENCH_sweep.json";
  std::string baseline_path;
  int reps = 0;  // 0 = preset default (5 canonical, 2 large)
  double gate_scaling = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_sweep: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--grid") {
      grid_name = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--reps") {
      reps = std::stoi(next());
    } else if (arg == "--gate-scaling") {
      gate_scaling = std::stod(next());
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_sweep [--grid canonical|large] [--out FILE] "
                   "[--baseline FILE] [--reps N] [--gate-scaling X]\n";
      return 0;
    } else {
      std::cerr << "bench_sweep: unknown option '" << arg << "'\n";
      return 2;
    }
  }

  sweep::SweepConfig cfg;
  if (grid_name == "canonical") {
    cfg = canonical_bench_config();
    if (reps == 0) reps = 5;
  } else if (grid_name == "large") {
    cfg = sweep::SweepConfig::large();
    if (reps == 0) reps = 2;
  } else {
    std::cerr << "bench_sweep: unknown grid '" << grid_name
              << "' (canonical|large)\n";
    return 2;
  }

  report::print_section(std::cout, "P2: parameter-sweep engine throughput");

  const std::size_t points = cfg.grid.size();
  const int hw = core::usable_hardware_threads();

  // Reference: no pool, the calling thread evaluates every point.
  sweep::SweepResult serial_result;
  const double serial_s = best_seconds(
      reps, [&] { serial_result = sweep::run_sweep(cfg, nullptr); });
  const double serial_pps = static_cast<double>(points) / serial_s;

  report::Table table(
      grid_name + " grid: " + std::to_string(points) + " points, best of " +
          std::to_string(reps) + ", " + std::to_string(hw) +
          " usable hw thread(s)",
      {"configuration", "time [ms]", "points/s", "speedup", "hit rate",
       "steals"});
  table.set_precision(2);
  table.add_row({std::string("serial"), serial_s * 1e3, serial_pps, 1.0,
                 hit_rate_of(serial_result.stats), 0.0});

  std::vector<int> widths{1, 2, 4, 8};
  if (std::find(widths.begin(), widths.end(), hw) == widths.end() && hw > 1)
    widths.push_back(hw);
  std::sort(widths.begin(), widths.end());

  std::vector<PoolSample> samples;
  for (const int threads : widths) {
    sweep::Pool pool(threads);
    sweep::SweepResult result;
    const std::uint64_t steals_before = pool.steals();
    const double s =
        best_seconds(reps, [&] { result = sweep::run_sweep(cfg, &pool); });
    PoolSample sample;
    sample.threads = threads;
    sample.seconds = s;
    sample.points_per_sec = static_cast<double>(points) / s;
    sample.hit_rate = hit_rate_of(result.stats);
    sample.steals = pool.steals() - steals_before;  // across all reps
    samples.push_back(sample);
    table.add_row({"pool(" + std::to_string(threads) + ")", s * 1e3,
                   sample.points_per_sec, serial_s / s, sample.hit_rate,
                   static_cast<double>(sample.steals)});

    // The scaling contract: identical output at every pool width.
    if (result.records != serial_result.records) {
      std::cerr << "ERROR: pool(" << threads
                << ") records differ from serial records\n";
      return 1;
    }
  }
  table.print(std::cout);

  std::cout << "\nReading: records are verified identical to the serial run\n"
               "at every pool width (the artifact is scheduling-independent);\n"
               "both presets' tuples are all distinct, so the sweep runs "
               "without a\nmemoization cache (hit rate 0) and memoizes only "
               "placement pricing per thread.\n";

  // -- machine-readable artifact ---------------------------------------------
  if (!out_path.empty()) {
    // Atomic temp-file + rename: a crash mid-write must never leave a torn
    // report where the perf gate's baseline refresh would pick it up.
    report::AtomicFileWriter writer(out_path);
    std::ostream& os = writer.stream();
    if (!writer.ok()) {
      std::cerr << "bench_sweep: cannot open '" << out_path << "'\n";
      return 2;
    }
    report::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "stamp-bench-sweep/v1");
    w.key("grid").begin_object();
    w.kv("name", grid_name);
    w.kv("axes", static_cast<long long>(cfg.grid.axes().size()));
    w.kv("points", static_cast<long long>(points));
    w.end_object();
    w.kv("reps", reps);
    w.kv("hardware_threads", hw);
    w.key("serial").begin_object();
    w.kv("ms", serial_s * 1e3);
    w.kv("points_per_sec", serial_pps);
    w.kv("cache_hit_rate", hit_rate_of(serial_result.stats));
    w.end_object();
    w.key("pools").begin_array();
    for (const PoolSample& s : samples) {
      w.begin_object();
      w.kv("threads", s.threads);
      w.kv("ms", s.seconds * 1e3);
      w.kv("points_per_sec", s.points_per_sec);
      w.kv("cache_hit_rate", s.hit_rate);
      w.kv("steals", static_cast<long long>(s.steals));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    try {
      writer.commit();
    } catch (const std::exception& e) {
      std::cerr << "bench_sweep: " << e.what() << "\n";
      return 2;
    }
    std::cout << "\nwrote " << out_path << "\n";
  }

  // -- strong-scaling gate ----------------------------------------------------
  if (gate_scaling > 0) {
    if (hw < 2) {
      std::cout << "gate-scaling: SKIPPED — only " << hw
                << " usable hardware thread(s); a parallel speedup cannot "
                   "exist here, run this gate on a multi-core runner\n";
    } else {
      bool ok = true;
      // Monotone in thread count over the widths the hardware can actually
      // run in parallel, with 5% noise tolerance. Oversubscribed widths
      // (threads > hw) are reported above but not gated.
      const PoolSample* prev = nullptr;
      const PoolSample* widest = nullptr;
      for (const PoolSample& s : samples) {
        if (s.threads > hw) {
          std::cout << "gate-scaling: pool(" << s.threads
                    << ") skipped (only " << hw << " usable hw threads)\n";
          continue;
        }
        if (prev != nullptr && s.points_per_sec < prev->points_per_sec * 0.95) {
          std::cerr << "FAIL: points/sec not monotone in thread count: pool("
                    << s.threads << ") " << s.points_per_sec << " < pool("
                    << prev->threads << ") " << prev->points_per_sec
                    << " (beyond 5% tolerance)\n";
          ok = false;
        }
        prev = &s;
        widest = &s;
      }
      // The widest gated run must beat serial by the requested factor,
      // scaled down to what the hardware can deliver: min(X, hw/2) leaves
      // 2x headroom for pool overhead on small machines.
      const double required =
          std::min(gate_scaling, static_cast<double>(hw) / 2.0);
      if (widest != nullptr) {
        const double speedup = widest->points_per_sec / serial_pps;
        std::cout << "gate-scaling: pool(" << widest->threads << ") speedup "
                  << speedup << "x vs required " << required << "x (requested "
                  << gate_scaling << "x, " << hw << " usable hw threads)\n";
        if (speedup < required) {
          std::cerr << "FAIL: pool(" << widest->threads << ") speedup "
                    << speedup << "x is below the required " << required
                    << "x\n";
          ok = false;
        }
      }
      if (!ok) return 1;
    }
  }

  // -- regression gate against a checked-in baseline -------------------------
  if (!baseline_path.empty()) {
    std::ifstream is(baseline_path, std::ios::binary);
    if (!is) {
      std::cerr << "bench_sweep: cannot read baseline '" << baseline_path
                << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << is.rdbuf();
    double base_pps = 0;
    try {
      const report::JsonValue base = report::JsonValue::parse(text.str());
      const report::JsonValue* grid = base.find("grid");
      const report::JsonValue* name = grid ? grid->find("name") : nullptr;
      if (name != nullptr && name->as_string() != grid_name)
        throw std::runtime_error("baseline is for grid '" + name->as_string() +
                                 "', this run used '" + grid_name + "'");
      const report::JsonValue* serial = base.find("serial");
      const report::JsonValue* pps =
          serial ? serial->find("points_per_sec") : nullptr;
      if (!pps) throw std::runtime_error("missing serial.points_per_sec");
      base_pps = pps->as_number();
    } catch (const std::exception& e) {
      std::cerr << "bench_sweep: bad baseline: " << e.what() << "\n";
      return 2;
    }
    const double ratio = serial_pps / base_pps;
    std::cout << "gate: serial " << serial_pps << " points/s vs baseline "
              << base_pps << " (" << ratio << "x)\n";
    if (ratio < 0.8) {
      std::cerr << "FAIL: serial points/sec regressed more than 20% against "
                << baseline_path << "\n";
      return 1;
    }
  }
  return 0;
}
