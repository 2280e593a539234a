#include "bench.hpp"

#include "obs/export.hpp"
#include "report/atomic_file.hpp"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

// -- inputs -------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

void Digest::update(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  Digest d;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    d.update(std::string_view(buf.data(), static_cast<std::size_t>(in.gcount())));
  }
  return d.value();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

namespace {

/// A streambuf that folds everything written to it into a Digest.
class DigestBuf : public std::streambuf {
 public:
  DigestBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }
  std::uint64_t finish() {
    drain();
    return digest_.value();
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    digest_.update(std::string_view(pbase(), static_cast<std::size_t>(pptr() - pbase())));
    setp(buf_.data(), buf_.data() + buf_.size());
  }
  std::vector<char> buf_ = std::vector<char>(1 << 16);
  Digest digest_;
};

/// Forwards to another streambuf in 64 KiB blocks, timing each hand-off as a
/// `report.atomic_file.write` span.
class TimedSink : public std::streambuf {
 public:
  TimedSink(std::streambuf* target, Tracer& tracer)
      : target_(target), tracer_(tracer) {
    setp(buf_.data(), buf_.data() + buf_.size());
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return drain() ? 0 : -1; }

 private:
  bool drain() {
    const std::streamsize n = pptr() - pbase();
    if (n == 0) return true;
    auto span = tracer_.scope("report.atomic_file.write");
    const bool ok = target_->sputn(pbase(), n) == n;
    bytes_ += static_cast<std::uint64_t>(n);
    setp(buf_.data(), buf_.data() + buf_.size());
    return ok;
  }
  std::streambuf* target_;
  Tracer& tracer_;
  std::vector<char> buf_ = std::vector<char>(1 << 16);
  std::uint64_t bytes_ = 0;
};

double status_kb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, field.size(), field) == 0)
      return std::strtod(line.c_str() + field.size(), nullptr);
  return 0;
}

}  // namespace

std::uint64_t stream_digest(const std::function<void(std::ostream&)>& emit) {
  DigestBuf buf;
  std::ostream os(&buf);
  emit(os);
  os.flush();
  return buf.finish();
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double rss_mb() { return status_kb("VmRSS:") / 1024.0; }
double peak_rss_mb() { return status_kb("VmHWM:") / 1024.0; }

// -- tracing ------------------------------------------------------------------

void Tracer::add(Event event) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  added_.push_back(std::move(event));
}

Tracer::Tree Tracer::tree() const {
  Tree t;
  t.events = recorder_.snapshot();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    t.events.insert(t.events.end(), added_.begin(), added_.end());
  }
  // Per thread, by start, an enclosing span before the spans it encloses;
  // then the top of a stack of still-open spans is each span's parent.
  const std::vector<Event>& ev = t.events;
  std::vector<std::size_t> order(ev.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ev[a].tid != ev[b].tid) return ev[a].tid < ev[b].tid;
    if (ev[a].ts_us != ev[b].ts_us) return ev[a].ts_us < ev[b].ts_us;
    return ev[a].dur_us > ev[b].dur_us;
  });
  t.parent.assign(ev.size(), -1);
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Event& e = ev[order[k]];
    if (k > 0 && ev[order[k - 1]].tid != e.tid) open.clear();
    while (!open.empty() && ev[open.back()].ts_us + ev[open.back()].dur_us <
                                e.ts_us + e.dur_us)
      open.pop_back();
    if (!open.empty()) t.parent[order[k]] = static_cast<int>(open.back());
    open.push_back(order[k]);
  }
  return t;
}

double Tracer::total(std::string_view name) const {
  double us = 0;
  for (const Event& e : tree().events)
    if (e.name == name) us += e.dur_us;
  return us * 1e-6;
}

double Tracer::self_total(std::string_view name) const {
  const Tree t = tree();
  double us = 0;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const Event& e = t.events[i];
    if (e.name == name) us += e.dur_us;
    const int p = t.parent[i];
    if (p >= 0 && t.events[static_cast<std::size_t>(p)].name == name)
      us -= e.dur_us;
  }
  return us * 1e-6;
}

Tracer::Coverage Tracer::coverage(std::string_view root) const {
  const Tree t = tree();
  auto is_root = [&](int i) {
    return i >= 0 && t.parent[static_cast<std::size_t>(i)] < 0 &&
           t.events[static_cast<std::size_t>(i)].name == root;
  };
  Coverage c;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    if (is_root(static_cast<int>(i))) {
      c.wall += t.events[i].dur_us * 1e-6;
      ++c.roots;
    } else if (is_root(t.parent[i])) {
      c.covered += t.events[i].dur_us * 1e-6;
    }
  }
  return c;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  Tree t = tree();
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    t.events[i].args.emplace_back("id", static_cast<double>(i));
    t.events[i].args.emplace_back("parent", t.parent[i]);
  }
  std::ofstream os(path, std::ios::binary);
  stamp::obs::write_chrome_trace(t.events, os);
  if (!os) throw std::runtime_error("cannot write trace " + path.string());
}

// -- outcome and measurement ----------------------------------------------------

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::input(const std::string& name, double value) {
  std::ostringstream os;
  os << std::setprecision(10) << value;
  inputs[name] = os.str();
}

Passes measure(const RunContext& ctx, Tracer& tracer,
               std::size_t min_iterations, const std::function<void()>& op,
               const std::function<void()>& verify) {
  Passes p;
  const std::size_t min_total = ctx.trace ? 2 * min_iterations : min_iterations;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < min_total ||
                          seconds_between(start, Clock::now()) < ctx.seconds;
       ++i) {
    const bool traced = ctx.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    {
      auto span = tracer.scope("bench.iteration");
      op();
    }
    (traced ? p.traced : p.untraced).push_back(seconds_between(t0, Clock::now()));
    if (!traced) p.untraced_cpu.push_back(process_cpu_s() - cpu0);
    tracer.set_enabled(false);
    if (verify) verify();
  }
  return p;
}

void report_batch(Outcome& out, const Passes& passes, std::size_t points,
                  const Setup& setup) {
  const double cpu = median(passes.untraced_cpu);
  report_setup(out, setup);
  out.metric("points_per_cpu_s", static_cast<double>(points) / cpu, "1/cpu_s");
  out.metric("ops_per_cpu_s", 1.0 / cpu, "1/cpu_s");
  out.input("iteration_cpu_ms_p50", cpu * 1e3);
  record_wall_latency(out, median(passes.untraced) * 1e3,
                      percentile(passes.untraced, 0.99) * 1e3,
                      passes.untraced.size());
}

void report_setup(Outcome& out, const Setup& setup) {
  out.metric("setup_s", setup.median_cpu_s(), "s");
  out.input("setup_builds", static_cast<double>(setup.builds()));
  out.input("setup_wall_s_p50", setup.median_wall_s());
}

void record_wall_latency(Outcome& out, double p50_ms, double p99_ms,
                         std::size_t samples) {
  out.input("wall_p50_ms", p50_ms);
  out.input("wall_p99_ms", p99_ms);
  out.input("wall_samples", static_cast<double>(samples));
}

void Setup::repeat(int times) {
  for (int i = 0; i < times; ++i) {
    if (!cpu_.empty()) teardown_();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    build_();
    wall_.push_back(seconds_between(t0, Clock::now()));
    cpu_.push_back(process_cpu_s() - cpu0);
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double windowed(const std::vector<double>& values, double q) {
  const std::size_t windows = values.size() / kWindowSamples;
  if (windows < 2) return percentile(values, q);
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first =
        values.begin() + static_cast<std::ptrdiff_t>(w * kWindowSamples);
    const auto last = w + 1 == windows
                          ? values.end()
                          : first + static_cast<std::ptrdiff_t>(kWindowSamples);
    per.push_back(percentile(std::vector<double>(first, last), q));
  }
  return median(per);
}

std::uint64_t write_artifact(Tracer& tracer, const std::filesystem::path& path,
                             const std::function<void(std::ostream&)>& emit) {
  if (!tracer.enabled()) {
    stamp::report::AtomicFileWriter writer(path.string());
    emit(writer.stream());
    writer.commit();
    return std::filesystem::file_size(path);
  }
  // Each phase is one direct child span of the iteration; `next` closes the
  // previous phase before it opens the next.
  stamp::obs::ScopedSpan phase;
  auto next = [&](const char* name) {
    phase = stamp::obs::ScopedSpan();
    phase = tracer.scope(name);
  };
  next("report.atomic_file.write");
  stamp::report::AtomicFileWriter writer(path.string());
  next("report.json.serialize");
  TimedSink sink(writer.stream().rdbuf(), tracer);
  std::ostream os(&sink);
  emit(os);
  os.flush();
  if (!os) throw std::runtime_error("artifact stream failed: " + path.string());
  next("report.atomic_file.commit");
  writer.commit();
  return sink.bytes();
}

void reconcile(const Tracer& tracer, Outcome& out) {
  const Tracer::Coverage c = tracer.coverage("bench.iteration");
  const double missing = c.wall - c.covered;
  const double n = c.roots ? static_cast<double>(c.roots) : 1;
  out.metric("bench.iteration_s", c.wall / n, "s");
  out.metric("unattributed_s", missing / n, "s");
  std::ostringstream what;
  what << "trace does not reconcile: layer spans cover " << c.covered
       << " s of " << c.wall << " s (allowed gap " << kReconcileShare * 100
       << "%)";
  out.check(c.roots > 0 && missing >= -1e-9 && missing <= kReconcileShare * c.wall,
            what.str());
}

/// Standalone `ParamGrid::decode_chunk` over the whole grid in 4096-point
/// chunks, timed as one `sweep.grid.decode` span outside the iterations.
void probe_grid_decode(Tracer& tracer, Outcome& out,
                       const stamp::sweep::ParamGrid& grid) {
  const bool traced = tracer.enabled();
  tracer.set_enabled(true);
  {
    auto span = tracer.scope("sweep.grid.decode");
    constexpr std::size_t kChunk = 4096;
    const std::size_t axes = grid.axes().size();
    std::vector<double> soa(axes * kChunk);
    for (std::size_t begin = 0; begin < grid.size(); begin += kChunk) {
      const std::size_t end = std::min(grid.size(), begin + kChunk);
      grid.decode_chunk(begin, end,
                        std::span<double>(soa.data(), axes * (end - begin)));
    }
  }
  tracer.set_enabled(traced);
  out.metric("sweep.grid.decode_s", tracer.total("sweep.grid.decode"), "s");
}

void report_cache(Outcome& out, std::uint64_t hits, std::uint64_t misses,
                  std::uint64_t evictions, double per) {
  out.metric("sweep.cache.hits", static_cast<double>(hits) / per, "count");
  out.metric("sweep.cache.misses", static_cast<double>(misses) / per, "count");
  out.metric("sweep.cache.evictions", static_cast<double>(evictions) / per,
             "count");
  const std::uint64_t probes = hits + misses;
  out.metric("sweep.cache.hit_rate",
             probes ? static_cast<double>(hits) / static_cast<double>(probes) : 0,
             "frac");
}

void report_artifact_layers(const Tracer& tracer, Outcome& out, double n,
                            double bytes) {
  out.metric("report.json.serialize_s",
             tracer.self_total("report.json.serialize") / n, "s");
  out.metric("report.json.bytes", bytes, "bytes");
  out.metric("report.atomic_file.write_s",
             tracer.total("report.atomic_file.write") / n, "s");
  out.metric("report.atomic_file.commit_s",
             tracer.total("report.atomic_file.commit") / n, "s");
}

// -- grids --------------------------------------------------------------------

namespace {

/// `count` values, one drawn uniformly from the middle fifth of each of
/// `count` equal strata of [lo, hi], rounded to 1/1000: seeded, distinct and
/// sorted, and spread like a linspace axis, so every seed prices a grid of
/// the same shape and the same cost (a wider draw changes how much of the
/// grid branch-and-bound prunes by a fifth from seed to seed).
std::vector<double> draw_axis(Rng& rng, double lo, double hi, std::size_t count) {
  std::vector<double> values;
  const double step = (hi - lo) / static_cast<double>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = 0.4 + 0.2 * rng.uniform();
    values.push_back(
        std::round((lo + step * (static_cast<double>(i) + u)) * 1000) / 1000);
  }
  return values;
}

/// Share of the grid's points whose parameter tuple is distinct.
double distinct_share(const stamp::sweep::ParamGrid& grid) {
  double share = 1;
  for (const auto& axis : grid.axes()) {
    const std::set<double> distinct(axis.values.begin(), axis.values.end());
    share *= static_cast<double>(distinct.size()) /
             static_cast<double>(axis.values.size());
  }
  return share;
}

}  // namespace

stamp::sweep::SweepConfig seeded_config(std::uint64_t seed, bool smoke,
                                        bool repeat_fast_axis) {
  namespace axes = stamp::sweep::axes;
  using stamp::sweep::SweepConfig;
  SweepConfig c = SweepConfig::large();
  c.grid = stamp::sweep::ParamGrid{};
  Rng rng(seed * 0x2545F4914F6CDD1Dull + (repeat_fast_axis ? 1 : 0));
  // ℓ_e and L_e get `fine` values, g_sh_e and κ `coarse` ones.
  const std::size_t fine = smoke ? 2 : repeat_fast_axis ? 6 : 4;
  const std::size_t coarse = smoke ? 2 : repeat_fast_axis ? 4 : 3;
  std::vector<double> processes = {16, 64};
  if (repeat_fast_axis) processes = {16, 64, 32, 16};
  // The base machine's intra-processor values are ℓ_a = 2, L_a = 4 and
  // g_sh_a = 0.25; the inter-processor ranges are the large preset's, above
  // them.
  c.grid.axis(std::string(axes::kCores), smoke ? std::vector<double>{2, 4}
                                               : std::vector<double>{2, 4, 8, 16})
      .axis(std::string(axes::kThreadsPerCore),
            smoke ? std::vector<double>{1, 2} : std::vector<double>{1, 2, 4})
      .axis(std::string(axes::kEllE), draw_axis(rng, 8, 40, fine))
      .axis(std::string(axes::kLE), draw_axis(rng, 16, 96, fine))
      .axis(std::string(axes::kGShE), draw_axis(rng, 1, 8, coarse))
      .axis(std::string(axes::kKappa), draw_axis(rng, 0, 14, coarse))
      .axis(std::string(axes::kPlacement), {0, 1, 2})
      .axis(std::string(axes::kProcesses), processes);
  c.workload = repeat_fast_axis ? "perfbench-search" : "perfbench-artifact";
  // Bounded like the large preset, and below the grid's distinct tuples
  // (with the pool's 8 shards per thread), so the cache evicts as it does
  // there.
  c.cache_entries_per_shard = smoke ? 4 : repeat_fast_axis ? 1024 : 256;
  return c;
}

void record_environment(Outcome& out) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  out.input("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  out.input("usable_threads", usable);
  out.input("pool_width", kPoolWidth);
  out.input("l2_bytes", static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  out.input("l3_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  out.input("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  out.input("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out.input("compiler", std::string("gcc ") + __VERSION__);
#else
  out.input("compiler", "unknown");
#endif
}

void record_grid(Outcome& out, const stamp::sweep::SweepConfig& cfg,
                 std::size_t cache_shards) {
  const std::size_t points = cfg.grid.size();
  const std::size_t axes = cfg.grid.axes().size();
  out.input("grid_points", static_cast<double>(points));
  out.input("distinct_share", distinct_share(cfg.grid));
  // One SweepRecord plus its heap `params` vector (and its allocation
  // header) per point.
  out.input("record_working_set_bytes",
            static_cast<double>(points * (sizeof(stamp::sweep::SweepRecord) +
                                          axes * sizeof(double) + 16)));
  out.input("cache_capacity_entries",
            static_cast<double>(cache_shards * cfg.cache_entries_per_shard));
}

}  // namespace perfbench
