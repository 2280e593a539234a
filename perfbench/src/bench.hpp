#pragma once
/// \file bench.hpp
/// \brief Shared machinery of the repository benchmark: the run context,
///        deterministic input generation, the in-memory span tracer, the
///        measurement loop, and the result every workload returns.
///
/// Every workload drives one user-facing surface through its public C++ API
/// and times the calls into each layer from here, around those calls: the
/// program under test is never modified to be measured. Parallelism is fixed
/// (`kPoolWidth`, `kServeWorkers`, ...), never derived from the hardware, so
/// two machines with different core counts run the same work.
///
/// The end-to-end metrics are costs in CPU time (`process_cpu_s`), not wall
/// time: on a shared virtual machine the host's steal and the wake-up latency
/// of idle vCPUs move wall-clock figures by a quarter to tenfold from one
/// minute to the next, while the CPU time the program spends on the same
/// work moves by a few percent. Wall-clock figures are recorded with the
/// inputs of every run.

#include "obs/span.hpp"
#include "sweep/sweep.hpp"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Width of every evaluation pool the benchmark asks for. Two, not the four
/// vCPUs of the reference machine: workers that run out of work yield-spin
/// until the loop ends, so every vCPU the host takes away from one worker
/// burns CPU time in the others, and fewer workers burn less.
inline constexpr int kPoolWidth = 2;
/// Set-up is built this many times before a run measures (see `Setup`).
inline constexpr int kSetupRepeats = 5;
/// A traced run reconciles when the top-level layer spans cover the measured
/// wall time to within this share of it.
inline constexpr double kReconcileShare = 0.05;

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke size: tiny inputs and short phases, for the self-test only.
  bool smoke = false;
  /// Self-test hook: the name of one correctness check whose reference is
  /// deliberately corrupted during set-up, so the check must fire.
  std::string inject;
  std::filesystem::path root;      ///< repository checkout (reads sweeps/)
  std::filesystem::path work_dir;  ///< scratch files of this run
};

/// splitmix64: a fixed generator, so one seed yields the same inputs with
/// every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);
  /// Exponential inter-arrival gap for a Poisson process of `rate` per second.
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// FNV-1a 64 over a byte stream: the artifact digest.
class Digest {
 public:
  void update(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

[[nodiscard]] std::string hex64(std::uint64_t v);
[[nodiscard]] std::uint64_t file_digest(const std::filesystem::path& path);
[[nodiscard]] std::string read_file(const std::filesystem::path& path);
/// Digest of what `emit` writes, without materializing it.
[[nodiscard]] std::uint64_t stream_digest(
    const std::function<void(std::ostream&)>& emit);

/// CPU time of the whole process (every thread) and of the calling thread,
/// in seconds.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

/// Current and peak resident set, in MB (from /proc/self/status).
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();

/// The benchmark's span recorder: a private `obs::TraceRecorder`, so the
/// program's own process-wide tracer (and its per-point spans) stays off.
/// Scopes nest per thread, and a span's parent is the innermost span of its
/// thread that encloses it. Spans stay in memory and are written once, at
/// exit, as a Chrome trace. Disabled, a scope records nothing.
class Tracer {
 public:
  using Event = stamp::obs::TraceEvent;

  void set_enabled(bool on) noexcept { recorder_.set_enabled(on); }
  [[nodiscard]] bool enabled() const noexcept { return recorder_.enabled(); }
  /// Microseconds since the tracer was created: the time base of `add`.
  [[nodiscard]] double now_us() const { return stamp::obs::micros_since(epoch_); }

  /// A span over the caller's scope (inactive while disabled). To end one
  /// phase and start the next, reset the span before opening the next one:
  /// a span closes the innermost open span of its thread.
  [[nodiscard]] stamp::obs::ScopedSpan scope(const char* name) {
    return enabled() ? stamp::obs::ScopedSpan(recorder_, name, "perfbench")
                     : stamp::obs::ScopedSpan();
  }
  /// Thread-safe: add a finished span timed elsewhere (a serve request,
  /// from its scheduled send to its answer), with its own `tid` track.
  void add(Event event);

  /// Sum of the durations of every span called `name`, in seconds.
  [[nodiscard]] double total(std::string_view name) const;
  /// `total(name)` minus the time its direct children cover.
  [[nodiscard]] double self_total(std::string_view name) const;
  /// Wall time of every `root` span, and the time their direct children
  /// cover: the reconciliation of one workload.
  struct Coverage {
    double wall = 0;
    double covered = 0;
    std::size_t roots = 0;
  };
  [[nodiscard]] Coverage coverage(std::string_view root) const;

  /// Chrome trace-event JSON through `obs::write_chrome_trace`, each span
  /// with its index and its parent's (-1 for none) as args.
  void write_json(const std::filesystem::path& path) const;

 private:
  /// Every recorded span, and the index of each one's parent (-1: none).
  struct Tree {
    std::vector<Event> events;
    std::vector<int> parent;
  };
  [[nodiscard]] Tree tree() const;

  stamp::obs::TraceRecorder recorder_;
  stamp::obs::Clock::time_point epoch_ = stamp::obs::Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> added_;
};

/// Everything one run reports: the correctness tally, metrics by name with
/// their unit, and the inputs behind the numbers.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failure messages
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> inputs;

  /// Count one attempted operation; a false `ok` counts it failed.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, std::string unit) {
    metrics[name] = {value, std::move(unit)};
  }
  void input(const std::string& name, const std::string& value) {
    inputs[name] = value;
  }
  void input(const std::string& name, double value);
};

/// The measured phase of a batch workload: run `op` until `ctx.seconds`
/// have passed and at least `min_iterations` ran (per pass). Each run of `op`
/// is one `bench.iteration` span, one wall-time sample and one process CPU
/// time sample; `verify` runs after each, outside the sample and untraced. A
/// traced run alternates untraced and traced iterations: the traced ones
/// give the per-layer numbers, and the ratio of the two medians is the
/// tracing overhead, free of the drift a shared machine shows over a run.
struct Passes {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> untraced_cpu;
};
Passes measure(const RunContext& ctx, Tracer& tracer,
               std::size_t min_iterations, const std::function<void()>& op,
               const std::function<void()>& verify);

class Setup;

/// The end-to-end metrics of a batch workload whose unit of work is one run
/// of the measured operation over `points` grid points: `setup_s`, and the
/// points and operations per CPU-second of the median iteration.
void report_batch(Outcome& out, const Passes& passes, std::size_t points,
                  const Setup& setup);
/// `setup_s`: the median CPU time of one set-up.
void report_setup(Outcome& out, const Setup& setup);
/// Record the wall-clock latency behind a workload's operations with its
/// inputs (`wall_p50_ms`, `wall_p99_ms` and the sample size). They are not
/// metrics: see the file comment.
void record_wall_latency(Outcome& out, double p50_ms, double p99_ms,
                         std::size_t samples);

/// Nearest-rank percentile (`q` in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// Percentile `q` of `values` (in time order) taken per window of
/// kWindowSamples consecutive samples and reported as the median over the
/// windows, so that a burst of multi-millisecond preemptions of a shared
/// virtual machine moves one window, not the figure; a window of 1000 still
/// leaves ten samples beyond its p99. A sample too small for two windows is
/// one.
inline constexpr std::size_t kWindowSamples = 1000;
[[nodiscard]] double windowed(const std::vector<double>& values, double q);

/// A workload's set-up, timed in process CPU time (its wall time is kept
/// too, for the inputs). Each `repeat` tears the previous build down
/// (untimed) and builds it again. A run builds it kSetupRepeats times before
/// it measures and again later (between iterations, or after the measured
/// phase), so that the samples span the run as the iterations do, and
/// `setup_s`, the median of every build, does not depend on one moment.
class Setup {
 public:
  Setup(std::function<void()> build, std::function<void()> teardown)
      : build_(std::move(build)), teardown_(std::move(teardown)) {}
  void repeat(int times = 1);
  [[nodiscard]] double median_cpu_s() const { return median(cpu_); }
  [[nodiscard]] double median_wall_s() const { return median(wall_); }
  [[nodiscard]] std::size_t builds() const { return cpu_.size(); }

 private:
  std::function<void()> build_;
  std::function<void()> teardown_;
  std::vector<double> cpu_;
  std::vector<double> wall_;
};

/// Write an artifact through `report::AtomicFileWriter`, the way the tools
/// do. Traced, the stream is wrapped so the time spent handing bytes to the
/// file (`report.atomic_file.write` spans) separates from serialization;
/// untraced, `emit` writes straight into the writer's stream. Returns the
/// bytes written.
std::uint64_t write_artifact(Tracer& tracer, const std::filesystem::path& path,
                             const std::function<void(std::ostream&)>& emit);

/// Reconcile a traced run: report the mean `bench.iteration_s` and the
/// `unattributed_s` part of it that no top-level layer span covers, and fail
/// the run when that exceeds `kReconcileShare` of the wall.
void reconcile(const Tracer& tracer, Outcome& out);

/// Layer metrics shared by several workloads. `per` divides totals into
/// per-iteration values.
void probe_grid_decode(Tracer& tracer, Outcome& out,
                       const stamp::sweep::ParamGrid& grid);
void report_cache(Outcome& out, std::uint64_t hits, std::uint64_t misses,
                  std::uint64_t evictions, double per);
void report_artifact_layers(const Tracer& tracer, Outcome& out, double per,
                            double bytes);

/// The seeded grid both grid workloads evaluate: the large preset's eight
/// axes (cores, threads/core, ℓ_e, L_e, g_sh_e, κ, placement, process bound)
/// with seeded values on the continuous axes, inter-processor ℓ/L/g drawn
/// above the base machine's intra-processor values. Without
/// `repeat_fast_axis` it has 10,368 points, all distinct. With it, 82,944
/// points, and the fastest (process-bound) axis lists its first value again
/// at the end, so exactly a quarter of the points repeat the tuple three
/// indices earlier.
[[nodiscard]] stamp::sweep::SweepConfig seeded_config(std::uint64_t seed,
                                                      bool smoke,
                                                      bool repeat_fast_axis);
/// Record the machine and build behind the numbers.
void record_environment(Outcome& out);
/// Record the grid inputs: points, distinct share, record working set
/// against the CPU caches and the CostCache capacity.
void record_grid(Outcome& out, const stamp::sweep::SweepConfig& cfg,
                 std::size_t cache_shards);

Outcome run_sweep_artifact(const RunContext& ctx);
Outcome run_search_grid(const RunContext& ctx);
Outcome run_serve_open(const RunContext& ctx);
Outcome run_fleet_merge(const RunContext& ctx);

}  // namespace perfbench
