/// \file main.cpp
/// \brief `stamp_perfbench` — runs one benchmark workload in this process
///        and prints its result as one JSON line.
///
///   stamp_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                   [--root DIR] [--work DIR] [--smoke] [--inject CHECK]
///
/// Workloads: sweep_artifact, search_grid, serve_open, fleet_merge (see
/// README.md beside this file). With `--trace 0` the result carries the
/// end-to-end metrics; with `--trace 1` the per-layer metrics of a traced
/// run, and the spans are written to `<work>/trace_<workload>.json`.
/// Exit status: 0 when every correctness check passed, 1 when one failed,
/// 2 on a usage or environment error (no result line is printed then).

#include "bench.hpp"

#include "report/json.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

namespace {

using perfbench::Outcome;
using perfbench::RunContext;

void usage_error(const std::string& what) {
  throw std::invalid_argument(
      what +
      "\nusage: stamp_perfbench --workload NAME --seed N --seconds S "
      "--trace 0|1 [--root DIR] [--work DIR] [--smoke] [--inject CHECK]");
}

RunContext parse(int argc, char** argv) {
  RunContext ctx;
  ctx.root = std::filesystem::current_path();
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      ctx.workload = next();
    } else if (arg == "--seed") {
      ctx.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      ctx.seconds = std::stod(next());
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      ctx.trace = v == "1";
      have_trace = true;
    } else if (arg == "--root") {
      ctx.root = next();
    } else if (arg == "--work") {
      ctx.work_dir = next();
    } else if (arg == "--smoke") {
      ctx.smoke = true;
    } else if (arg == "--inject") {
      ctx.inject = next();
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  if (ctx.workload.empty() || !have_trace) usage_error("missing arguments");
  if (!(ctx.seconds > 0)) usage_error("--seconds must be positive");
  if (ctx.work_dir.empty()) ctx.work_dir = ctx.root / ".perfbench";
  return ctx;
}

/// Steal and total jiffies of all CPUs, from the first line of /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

void print(const Outcome& out) {
  stamp::report::JsonWriter inputs(std::cout);
  inputs.begin_object().key("inputs").begin_object();
  for (const auto& [name, value] : out.inputs) inputs.kv(name, value);
  inputs.key("failures").begin_array();
  for (const std::string& f : out.failures) inputs.value(f);
  inputs.end_array().end_object().end_object();
  std::cout << "\n";

  stamp::report::JsonWriter w(std::cout);
  w.begin_object();
  w.kv("correct", out.failed == 0);
  w.kv("attempted", static_cast<long long>(out.attempted));
  w.kv("failed", static_cast<long long>(out.failed));
  w.key("metrics").begin_object();
  for (const auto& [name, metric] : out.metrics) {
    w.key(name).begin_object();
    w.kv("value", metric.first);
    w.kv("unit", metric.second);
    w.end_object();
  }
  w.end_object().end_object();
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
#ifndef NDEBUG
    throw std::runtime_error(
        "refusing to report numbers from a build with assertions enabled "
        "(build type " PERFBENCH_BUILD_TYPE "); configure with "
        "-DCMAKE_BUILD_TYPE=Release");
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
      throw std::runtime_error("refusing to report numbers from a Debug build");
    const RunContext ctx = parse(argc, argv);
    // A serve::Server keeps every accepted connection's socket until it
    // drains, and fleet_merge reconnects on every iteration: lift the soft
    // descriptor limit to the hard one so a long run does not hit it.
    rlimit files{};
    if (getrlimit(RLIMIT_NOFILE, &files) == 0) {
      files.rlim_cur = files.rlim_max;
      (void)setrlimit(RLIMIT_NOFILE, &files);
    }
    static const std::map<std::string, Outcome (*)(const RunContext&)> kRun = {
        {"sweep_artifact", perfbench::run_sweep_artifact},
        {"search_grid", perfbench::run_search_grid},
        {"serve_open", perfbench::run_serve_open},
        {"fleet_merge", perfbench::run_fleet_merge},
    };
    const auto it = kRun.find(ctx.workload);
    if (it == kRun.end()) usage_error("unknown workload " + ctx.workload);
    std::filesystem::create_directories(ctx.work_dir);

    const auto jiffies0 = cpu_jiffies();
    Outcome out = it->second(ctx);
    const auto jiffies1 = cpu_jiffies();
    // The share of the machine's CPU time the host took away during the run:
    // what the wall-clock figures in the inputs suffer from.
    const double total = jiffies1.second - jiffies0.second;
    out.input("host_steal_frac",
              total > 0 ? (jiffies1.first - jiffies0.first) / total : 0);
    perfbench::record_environment(out);
    out.input("workload", ctx.workload);
    out.input("seed", std::to_string(ctx.seed));
    out.input("trace", ctx.trace ? "1" : "0");
    if (!ctx.trace) out.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    for (const std::string& f : out.failures)
      std::cerr << "stamp_perfbench: check failed: " << f << "\n";
    print(out);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "stamp_perfbench: " << e.what() << "\n";
    return 2;
  }
}
