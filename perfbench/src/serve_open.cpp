/// \file serve_open.cpp
/// \brief Workload `serve_open`: an in-process `serve::Server` under an
///        open-loop (Poisson) schedule — the only latency-bound surface.
///
/// Two persistent connections send a seeded schedule at a fixed rate, in
/// segments, without waiting for answers: mostly Zipf-skewed `evaluate`
/// requests (cache-resident after set-up), some 64-point `sweep_chunk`
/// requests (heavy on response serialization) and a few BnB `search`
/// requests. The end-to-end figures are the server's CPU cost per request:
/// the process CPU time of each segment minus what the generator's own
/// threads spent. Each request is also timed from its *scheduled* send, so a
/// stall charges the requests queued behind it; those wall-clock latencies
/// are recorded with the inputs and split into layers by the traced run.
/// Every response is compared byte for byte with what a separate
/// `ServeEngine` answered for the same request during set-up.

#include "bench.hpp"

#include "dist/coordinator.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using stamp::serve::Socket;

constexpr int kServeWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr auto kSpin = std::chrono::microseconds(50);
/// Traffic mix. The shares, the Zipf exponent and the number of distinct
/// search seeds are assumptions: no traffic has been recorded to draw them
/// from. They set what `ops_per_cpu_s`, `points_per_cpu_s` and the latency
/// figures weigh, and README.md says so. The rest of the traffic is `evaluate`,
/// Zipf(kZipfExponent) over the grid; `best_placement` is not sent.
constexpr double kChunkShare = 0.05;
constexpr double kSearchShare = 0.01;
constexpr double kZipfExponent = 1.1;
constexpr std::uint64_t kSearchSeeds = 8;
/// A `sweep_chunk` covers what `stamp_fleet` sends one worker per shard.
const std::uint64_t kChunkPoints = stamp::dist::FleetOptions{}.points_per_shard;
constexpr std::uint64_t kChunkStride = 16;
/// The rate (requests/s over both connections), and the segments the run is
/// cut into; the figures are medians over the segments. The rate is low
/// enough that the two workers stay near a fifth busy: a shared machine
/// that slows down for a while then adds its own share, not a queueing
/// blow-up, to the latency.
constexpr double kRate = 4000;
constexpr double kSmokeRate = 200;
constexpr std::size_t kSegments = 8;
/// Traced reference segments also send a `stats` probe on each connection
/// this often (see `add_probes`), and sample the admission queue's depth
/// this often on a connection of their own (see `ServeState::sample_depth`).
constexpr double kProbeEveryS = 0.002;
constexpr auto kDepthSampleEvery = std::chrono::milliseconds(1);
/// A traced request reconciles when its generator lateness, socket round
/// trip, queue wait and engine service add up to its latency within this
/// share of it (means over the traced reference segments).
constexpr double kServeReconcileShare = 0.15;
/// A segment whose answers stop arriving for this long counts the rest lost.
constexpr double kResponseTimeoutS = 10;
/// Trace track (`tid`) of the requests sent on connection c: kRequestTrack + c.
constexpr int kRequestTrack = 1000;

const std::string kHead = std::string("{\"schema\":\"") +
                          std::string(stamp::serve::kSchema) + "\",\"id\":";
/// A `stats` answer after its id, up to the queue depth it reports.
constexpr std::string_view kStatsTail =
    ",\"status\":200,\"op\":\"stats\",\"queue_depth\":";

enum class Op : std::uint8_t { Evaluate, SweepChunk, Search, Stats };

/// One distinct request: its line after the id, and the reference response
/// after the id.
struct Reference {
  Op op = Op::Evaluate;
  std::uint64_t points = 1;
  std::string body;
  std::string tail;
};

struct Request {
  std::uint32_t ref = 0;
  double offset = 0;    ///< scheduled send, seconds after the segment start
  double sent = -1;     ///< actual send
  double answered = -1; ///< response received
  std::uint32_t bytes = 0;
  bool ok = false;
};

struct Segment {
  double window = 0;
  std::array<std::vector<Request>, kConnections> conns;
};

struct SegmentResult {
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  double points = 0;  ///< grid points in the correct answers
  /// Process CPU time of the segment minus the generator's threads' own.
  double server_cpu_s = 0;
  std::vector<double> queue_depth;  ///< traced segments: sampled depths
};

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::vector<Reference> make_references(const stamp::serve::ServeEngine& probe) {
  std::vector<Reference> refs;
  for (std::uint64_t i = 0; i < probe.grid_points(); ++i)
    refs.push_back({Op::Evaluate, 1,
                    ",\"op\":\"evaluate\",\"index\":" + std::to_string(i) + "}",
                    {}});
  for (std::uint64_t b = 0; b + kChunkPoints <= probe.grid_points();
       b += kChunkStride)
    refs.push_back({Op::SweepChunk, kChunkPoints,
                    ",\"op\":\"sweep_chunk\",\"begin\":" + std::to_string(b) +
                        ",\"end\":" + std::to_string(b + kChunkPoints) + "}",
                    {}});
  for (std::uint64_t s = 1; s <= kSearchSeeds; ++s)
    refs.push_back({Op::Search, 1,
                    ",\"op\":\"search\",\"method\":\"bnb\",\"seed\":" +
                        std::to_string(s) + "}",
                    {}});
  // Last: the probe, answered by the server, never by an engine.
  refs.push_back({Op::Stats, 0, ",\"op\":\"stats\"}", {}});
  return refs;
}

/// Fill every reference's expected response from a separate engine.
void answer_references(std::vector<Reference>& refs,
                       stamp::serve::ServeEngine& engine) {
  for (Reference& r : refs) {
    if (r.op == Op::Stats) continue;
    const std::string response =
        engine.handle(stamp::serve::parse_request("{\"id\":0" + r.body), nullptr);
    if (response.compare(0, kHead.size() + 1, kHead + "0") != 0)
      throw std::runtime_error("unexpected reference response: " + response);
    r.tail = response.substr(kHead.size() + 1);
  }
}

/// The seeded open-loop schedule of one segment: per connection, Poisson
/// arrivals at rate/kConnections.
Segment make_segment(Rng& rng, double rate, double window,
               const std::vector<Reference>& refs,
               const std::vector<std::uint32_t>& zipf_order,
               const std::vector<double>& zipf_cdf) {
  std::uint32_t evaluates = 0, chunks = 0;
  for (const Reference& r : refs) {
    evaluates += r.op == Op::Evaluate;
    chunks += r.op == Op::SweepChunk;
  }
  Segment seg;
  seg.window = window;
  for (auto& conn : seg.conns) {
    double t = rng.exponential(rate / kConnections);
    while (t < window) {
      const double u = rng.uniform();
      std::uint32_t ref = 0;
      if (u < kSearchShare) {
        ref = evaluates + chunks + static_cast<std::uint32_t>(rng.below(kSearchSeeds));
      } else if (u < kSearchShare + kChunkShare) {
        ref = evaluates + static_cast<std::uint32_t>(rng.below(chunks));
      } else {
        const double z = rng.uniform();
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), z) -
            zipf_cdf.begin());
        ref = zipf_order[std::min(rank, zipf_order.size() - 1)];
      }
      conn.push_back(Request{ref, t});
      t += rng.exponential(rate / kConnections);
    }
  }
  return seg;
}

/// Add a `stats` probe every kProbeEveryS to each connection of a traced
/// segment. The connection's reader thread answers it inline, without the
/// queue or the engine, so its round trip times the socket path the
/// requests around it take: the client's write, the reader's wake-up and
/// parsing, the wait for the connection's write lock behind other
/// responses, the write and the client's read.
void add_probes(Segment& seg, std::uint32_t stats_ref) {
  for (auto& conn : seg.conns) {
    for (double t = kProbeEveryS / 2; t < seg.window; t += kProbeEveryS)
      conn.push_back(Request{stats_ref, t});
    std::stable_sort(conn.begin(), conn.end(),
                     [](const Request& a, const Request& b) {
                       return a.offset < b.offset;
                     });
  }
}

/// The generator's threads report their own CPU time in `cpu_s` when they
/// end, so that it can be taken out of the process's.
void send_loop(Socket& sock, std::vector<Request>& reqs, std::uint64_t base,
               const std::vector<Reference>& refs, Clock::time_point t0,
               bool& write_failed, double& cpu_s) {
  struct Report {
    double& cpu_s;
    ~Report() { cpu_s = thread_cpu_s(); }
  } report{cpu_s};
  // Sleep with the tightest timer slack, then spin the last stretch: a
  // plain sleep wakes up to milliseconds late on a busy virtual machine.
  prctl(PR_SET_TIMERSLACK, 1UL);
  std::string batch;
  std::size_t i = 0;
  while (i < reqs.size()) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(reqs[i].offset));
    if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    const double at = seconds_between(t0, Clock::now());
    // Everything already due goes out in one write.
    batch.clear();
    std::size_t j = i;
    for (; j < reqs.size() && reqs[j].offset <= at; ++j) {
      batch += "{\"id\":";
      batch += std::to_string(base + j);
      batch += refs[reqs[j].ref].body;
      batch += '\n';
      reqs[j].sent = at;
    }
    if (!sock.write_all(batch)) {
      write_failed = true;
      return;
    }
    i = j;
  }
}

void receive_loop(Socket& sock, std::vector<Request>& reqs, std::uint64_t base,
                  const std::vector<Reference>& refs, Clock::time_point t0,
                  Tracer& tracer, int track, std::size_t& strays, double& cpu_s) {
  struct Report {
    double& cpu_s;
    ~Report() { cpu_s = thread_cpu_s(); }
  } report{cpu_s};
  std::string line;
  std::size_t got = 0;
  Clock::time_point progress = Clock::now();
  const double t0_us = tracer.now_us() - seconds_between(t0, Clock::now()) * 1e6;
  while (got < reqs.size()) {
    const Socket::ReadStatus status = sock.read_line(line, 50);
    const Clock::time_point now = Clock::now();
    if (status == Socket::ReadStatus::Timeout) {
      if (seconds_between(progress, now) > kResponseTimeoutS) return;
      continue;
    }
    if (status != Socket::ReadStatus::Line) return;
    progress = now;
    std::uint64_t id = 0;
    std::size_t pos = kHead.size();
    const bool framed = line.compare(0, kHead.size(), kHead) == 0;
    while (framed && pos < line.size() && line[pos] >= '0' && line[pos] <= '9')
      id = id * 10 + static_cast<std::uint64_t>(line[pos++] - '0');
    if (!framed || id < base || id - base >= reqs.size() ||
        reqs[id - base].answered >= 0) {
      ++strays;
      continue;
    }
    Request& r = reqs[id - base];
    r.answered = seconds_between(t0, now);
    r.bytes = static_cast<std::uint32_t>(line.size());
    const std::string_view tail = std::string_view(line).substr(pos);
    const bool probe = refs[r.ref].op == Op::Stats;
    if (probe) {
      r.ok = tail.substr(0, kStatsTail.size()) == kStatsTail;
    } else {
      r.ok = tail == refs[r.ref].tail;
    }
    ++got;
    if (tracer.enabled())
      tracer.add({probe ? "serve.probe" : "serve.request", "perfbench", 'X',
                  t0_us + r.offset * 1e6, (r.answered - r.offset) * 1e6, track,
                  {{"request_id", static_cast<double>(id)}}});
  }
}

/// The server, its client connections, and the references: what set-up
/// builds and the measured phase drives.
struct ServeState {
  std::unique_ptr<stamp::serve::Server> server;
  std::array<Socket, kConnections> socks;
  Socket sampler;  ///< traced segments: the queue-depth sampler's connection
  std::uint64_t sampled = 0;
  std::unique_ptr<stamp::serve::ServeEngine> engine;  ///< the separate one
  std::vector<Reference> refs;
  /// The schedule's generator and the Zipf ranking of the `evaluate`
  /// indices. Each segment is drawn just before it runs, so that the
  /// schedule of a whole run is never in memory at once (it would be a
  /// third of the peak resident set).
  Rng rng{0};
  std::vector<std::uint32_t> zipf_order;
  std::vector<double> zipf_cdf;
  std::vector<Segment> traced;  ///< the traced segments, kept for the replay
  std::uint64_t next_id = 1;

  ~ServeState() {
    if (server) server->drain();
  }

  /// The admission queue's depth, from a `stats` answer on the sampler's
  /// connection; -1 when the server did not answer. Sampled at a fixed
  /// period, independent of the arrivals, the depths give the queue wait by
  /// Little's law: the mean depth over a window, times the window, is the
  /// total time the window's requests waited in the queue.
  double sample_depth() {
    std::string line;
    if (!sampler.write_all("{\"id\":" + std::to_string(++sampled) +
                           ",\"op\":\"stats\"}\n") ||
        sampler.read_line(line, 1000) != Socket::ReadStatus::Line)
      return -1;
    const std::size_t at = line.find(kStatsTail);
    return at == std::string::npos
               ? -1
               : std::strtod(line.c_str() + at + kStatsTail.size(), nullptr);
  }

  /// Run one segment as one `bench.iteration`: send on schedule and wait for
  /// every answer. With `sample`, the queue depth is sampled every
  /// kDepthSampleEvery through the window.
  SegmentResult run(Segment& seg, Tracer& tracer, Outcome& out, bool sample = false) {
    SegmentResult res;
    std::array<std::uint64_t, kConnections> base{};
    for (std::size_t c = 0; c < kConnections; ++c) {
      base[c] = next_id;
      next_id += seg.conns[c].size();
      for (Request& r : seg.conns[c]) r = Request{r.ref, r.offset};
    }
    std::array<bool, kConnections> write_failed{};
    std::array<std::size_t, kConnections> strays{};
    std::array<double, 2 * kConnections> generator_cpu{};
    const double cpu0 = process_cpu_s();
    const double main0 = thread_cpu_s();
    {
      auto iteration = tracer.scope("bench.iteration");
      // jthreads join on every exit path, exceptions included.
      std::array<std::jthread, kConnections> senders, receivers;
      const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
      {
        auto send = tracer.scope("loadgen.send");
        for (std::size_t c = 0; c < kConnections; ++c) {
          receivers[c] = std::jthread(receive_loop, std::ref(socks[c]),
                                     std::ref(seg.conns[c]), base[c],
                                     std::cref(refs), t0, std::ref(tracer),
                                     kRequestTrack + static_cast<int>(c),
                                     std::ref(strays[c]),
                                     std::ref(generator_cpu[2 * c]));
          senders[c] = std::jthread(send_loop, std::ref(socks[c]),
                                   std::ref(seg.conns[c]), base[c],
                                   std::cref(refs), t0, std::ref(write_failed[c]),
                                   std::ref(generator_cpu[2 * c + 1]));
        }
        if (sample) {
          const Clock::time_point window_end =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seg.window));
          while (Clock::now() < window_end) {
            const double depth = sample_depth();
            if (depth < 0) out.check(false, "serve_open: depth sample unanswered");
            res.queue_depth.push_back(std::max(depth, 0.0));
            std::this_thread::sleep_for(kDepthSampleEvery);
          }
        }
        for (std::jthread& t : senders) t.join();
      }
      auto drain = tracer.scope("loadgen.drain");
      for (std::jthread& t : receivers) t.join();
    }
    res.server_cpu_s = process_cpu_s() - cpu0 - (thread_cpu_s() - main0);
    for (const double g : generator_cpu) res.server_cpu_s -= g;

    std::vector<const Request*> order;
    for (std::size_t c = 0; c < kConnections; ++c) {
      out.check(!write_failed[c] && strays[c] == 0,
                "serve_open: connection " + std::to_string(c) +
                    " lost its stream");
      for (const Request& r : seg.conns[c]) {
        const bool ok = r.answered >= 0 && r.ok;
        ++res.requests;
        order.push_back(&r);
        if (!ok) ++res.failed;
        out.check(ok, ok ? std::string()
                         : std::string("serve_open: request ") +
                               (r.answered < 0 ? "unanswered"
                                               : "differs from "
                                                 "ServeEngine::handle: " +
                                                     refs[r.ref].body));
        if (ok) res.points += static_cast<double>(refs[r.ref].points);
      }
    }
    std::sort(order.begin(), order.end(), [](const Request* a, const Request* b) {
      return a->offset < b->offset;
    });
    for (const Request* r : order) {
      if (refs[r->ref].op == Op::Stats) continue;
      // A failed request counts as infinitely late.
      res.latency_ms.push_back(r->answered >= 0 && r->ok
                                   ? (r->answered - r->offset) * 1e3
                                   : INFINITY);
      res.lateness_ms.push_back(r->sent >= 0 ? (r->sent - r->offset) * 1e3
                                             : INFINITY);
    }
    return res;
  }
};

/// Direct `ServeEngine::handle` times on the separate engine, replaying
/// every answered request of the traced segments in order: per op (µs), and
/// in total (s).
struct EngineTimes {
  std::array<std::vector<double>, 3> us;
  double total_s = 0;
};
EngineTimes engine_times(ServeState& st) {
  EngineTimes t;
  for (const Segment& seg : st.traced)
    for (const auto& conn : seg.conns)
      for (const Request& r : conn) {
        const Reference& ref = st.refs[r.ref];
        if (ref.op == Op::Stats || r.answered < 0) continue;
        const stamp::serve::ServeRequest req =
            stamp::serve::parse_request("{\"id\":1" + ref.body);
        const Clock::time_point t0 = Clock::now();
        (void)st.engine->handle(req, nullptr);
        const double s = seconds_between(t0, Clock::now());
        t.us[static_cast<std::size_t>(ref.op)].push_back(s * 1e6);
        t.total_s += s;
      }
  return t;
}

}  // namespace

Outcome run_serve_open(const RunContext& ctx) {
  Outcome out;
  Tracer tracer;
  const double rate = ctx.smoke ? kSmokeRate : kRate;
  const double segment_s = ctx.seconds / kSegments;

  std::unique_ptr<ServeState> st;
  Setup setup([&] {
    st = std::make_unique<ServeState>();
    stamp::serve::ServerOptions options;
    options.workers = kServeWorkers;
    // Deep enough that a stall of the host queues requests instead of
    // refusing them.
    options.queue_depth = std::size_t{1} << 20;
    options.engine.grid = "canonical";
    st->server = std::make_unique<stamp::serve::Server>(options);
    st->server->start();
    for (Socket* s : {&st->socks[0], &st->socks[1], &st->sampler}) {
      *s = Socket::connect_to(st->server->port());
      if (!s->valid()) throw std::runtime_error("serve_open: cannot connect");
    }
    st->engine = std::make_unique<stamp::serve::ServeEngine>(options.engine);
    st->refs = make_references(*st->engine);
    answer_references(st->refs, *st->engine);

    st->rng = Rng(ctx.seed);
    const std::uint64_t n = st->engine->grid_points();
    std::vector<std::uint32_t>& order = st->zipf_order;
    order.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    for (std::uint64_t i = n - 1; i > 0; --i)
      std::swap(order[i], order[st->rng.below(i + 1)]);
    std::vector<double>& cdf = st->zipf_cdf;
    cdf.resize(n);
    double sum = 0;
    for (std::uint64_t k = 0; k < n; ++k)
      cdf[k] = sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    for (double& c : cdf) c /= sum;

    // Warm the server's cache: every distinct request once, pipelined.
    Segment warm;
    for (std::uint32_t i = 0; i < st->refs.size(); ++i)
      warm.conns[i % kConnections].push_back(Request{i, 0});
    Tracer off;
    Outcome ignored;
    (void)st->run(warm, off, ignored);
    // The most frequent `evaluate` request: a few dozen times even at smoke
    // size.
    if (ctx.inject == "serve-ref") st->refs[order.front()].tail.back() = ']';
  }, [&] { st.reset(); });
  setup.repeat(kSetupRepeats);
  out.input("serve_workers", kServeWorkers);
  out.input("connections", static_cast<double>(kConnections));
  out.input("rate", rate);
  out.input("grid_points", static_cast<double>(st->engine->grid_points()));
  out.input("mix", "assumed: evaluate zipf(" + std::to_string(kZipfExponent) +
                       ") / sweep_chunk " + std::to_string(kChunkPoints) +
                       " points " + std::to_string(kChunkShare) +
                       " / search bnb " + std::to_string(kSearchShare));

  const stamp::serve::ServerStats stats0 = st->server->stats();
  const std::uint64_t hits0 = st->server->engine().cache().hits();
  const std::uint64_t misses0 = st->server->engine().cache().misses();
  const std::uint64_t evictions0 = st->server->engine().cache().evictions();
  // A traced run alternates untraced and traced segments; the ratio of
  // their latency medians is the tracing overhead.
  std::array<SegmentResult, 2> all;  // [untraced, traced], concatenated
  std::vector<double> ops_per_cpu, points_per_cpu, server_busy;
  std::vector<double> segment_queue_s;  // traced segments: ∫ depth dt
  for (std::size_t i = 0; i < kSegments; ++i) {
    const bool traced = ctx.trace && i % 2 == 1;
    Segment seg = make_segment(st->rng, rate, segment_s, st->refs,
                               st->zipf_order, st->zipf_cdf);
    if (traced) add_probes(seg, static_cast<std::uint32_t>(st->refs.size() - 1));
    tracer.set_enabled(traced);
    const SegmentResult r = st->run(seg, tracer, out, traced);
    tracer.set_enabled(false);
    SegmentResult& into = all[traced ? 1 : 0];
    into.latency_ms.insert(into.latency_ms.end(), r.latency_ms.begin(),
                           r.latency_ms.end());
    into.lateness_ms.insert(into.lateness_ms.end(), r.lateness_ms.begin(),
                            r.lateness_ms.end());
    if (traced) {
      segment_queue_s.push_back(mean(r.queue_depth) * seg.window);
      st->traced.push_back(std::move(seg));
    } else {
      const double answered = static_cast<double>(r.requests - r.failed);
      ops_per_cpu.push_back(answered / r.server_cpu_s);
      points_per_cpu.push_back(r.points / r.server_cpu_s);
      server_busy.push_back(r.server_cpu_s / seg.window);
    }
  }
  const stamp::serve::ServerStats stats1 = st->server->stats();

  if (!ctx.trace) {
    // Set-up is built again after the segments, not between them, so that
    // its samples span the run without a freshly built server mid-run.
    setup.repeat(kSetupRepeats);
    report_setup(out, setup);
    out.metric("points_per_cpu_s", median(points_per_cpu), "1/cpu_s");
    out.metric("ops_per_cpu_s", median(ops_per_cpu), "1/cpu_s");
    out.input("server_cpu_per_wall_s", median(server_busy));
    record_wall_latency(out, windowed(all[0].latency_ms, 0.5),
                        windowed(all[0].latency_ms, 0.99), all[0].latency_ms.size());
    out.input("lateness_p99_ms", windowed(all[0].lateness_ms, 0.99));
  } else {
    // Layer probes on the separate engine, outside the measured segments.
    std::vector<std::string> lines;
    for (const auto& conn : st->traced.front().conns)
      for (const Request& r : conn)
        lines.push_back("{\"id\":1" + st->refs[r.ref].body);
    const Clock::time_point p0 = Clock::now();
    for (const std::string& line : lines)
      (void)stamp::serve::parse_request(line);
    const double parse_us =
        seconds_between(p0, Clock::now()) * 1e6 / static_cast<double>(lines.size());
    out.metric("serve.protocol.parse_us", parse_us, "us");
    const EngineTimes engine = engine_times(*st);
    const char* names[] = {"evaluate", "sweep_chunk", "search"};
    std::array<double, 3> service_ms{};
    for (std::size_t op = 0; op < 3; ++op) {
      const std::string base = std::string("serve.engine.") + names[op] + "_us";
      out.metric(base + "_p50", percentile(engine.us[op], 0.5), "us");
      out.metric(base + "_p99", percentile(engine.us[op], 0.99), "us");
      service_ms[op] = percentile(engine.us[op], 0.5) / 1e3;
    }

    // Reconciliation, as means per answered request of the traced reference
    // segments: latency from the scheduled send = generator lateness +
    // socket round trip + queue wait + engine service, each measured on its
    // own (see `add_probes`), within kServeReconcileShare of the latency.
    double n = 0, latency_s = 0, lateness_s = 0, queue_s = 0;
    double bytes = 0;
    std::vector<double> rtt_us;
    // `serve.queue_wait_ms_*`: the round trip beyond the op's median direct
    // service, as a distribution (so the socket path is in it too).
    std::vector<double> wait_ms;
    for (const double q : segment_queue_s) queue_s += q;
    for (const Segment& seg : st->traced) {
      for (const auto& conn : seg.conns)
        for (const Request& r : conn) {
          if (r.answered < 0) continue;
          const Op op = st->refs[r.ref].op;
          if (op == Op::Stats) {
            rtt_us.push_back((r.answered - r.sent) * 1e6);
            continue;
          }
          const auto k = static_cast<std::size_t>(op);
          n += 1;
          latency_s += r.answered - r.offset;
          lateness_s += r.sent - r.offset;
          wait_ms.push_back(std::max(0.0, (r.answered - r.sent) * 1e3 - service_ms[k]));
          bytes += r.bytes;
        }
    }
    n = std::max(n, 1.0);
    out.metric("serve.protocol.response_bytes", bytes / n, "bytes");
    latency_s /= n;
    lateness_s /= n;
    const double service_s = engine.total_s / n;
    queue_s /= n;
    const double socket_s = mean(rtt_us) * 1e-6;
    const double unattributed =
        latency_s - (lateness_s + socket_s + queue_s + service_s);
    out.metric("bench.iteration_s", latency_s, "s");
    out.metric("unattributed_s", unattributed, "s");
    out.metric("loadgen.lateness_us", lateness_s * 1e6, "us");
    out.metric("serve.socket.rtt_us", mean(rtt_us), "us");
    out.metric("serve.queue.wait_us", queue_s * 1e6, "us");
    out.metric("serve.engine.service_us", service_s * 1e6, "us");
    std::ostringstream what;
    what << "serve_open: trace does not reconcile: mean latency " << latency_s * 1e6
         << " us, lateness " << lateness_s * 1e6 << " + socket " << socket_s * 1e6
         << " + queue " << queue_s * 1e6 << " + service " << service_s * 1e6
         << " us (allowed gap " << kServeReconcileShare * 100 << "%)";
    // A smoke run's traced segments hold a few dozen requests, too few for
    // means to add up; it reports the layers without judging them.
    out.input("reconciled", ctx.smoke ? "not judged (smoke size)" : "judged");
    if (!ctx.smoke)
      out.check(!rtt_us.empty() &&
                    std::abs(unattributed) <= kServeReconcileShare * latency_s,
                what.str());
    out.metric("serve.queue_wait_ms_p50", percentile(wait_ms, 0.5), "ms");
    out.metric("serve.queue_wait_ms_p99", percentile(wait_ms, 0.99), "ms");
    out.metric("serve.server.accepted",
               static_cast<double>(stats1.accepted - stats0.accepted), "count");
    out.metric("serve.server.rejected_overload",
               static_cast<double>(stats1.rejected_overload - stats0.rejected_overload),
               "count");
    out.metric("serve.server.deadline_hits",
               static_cast<double>(stats1.deadline_hits - stats0.deadline_hits),
               "count");
    const stamp::sweep::CostCache& cache = st->server->engine().cache();
    const std::uint64_t hits = cache.hits() - hits0;
    const std::uint64_t misses = cache.misses() - misses0;
    report_cache(out, hits, misses, cache.evictions() - evictions0, 1);
    out.metric("serve.cache.hit_rate",
               hits + misses ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0,
               "frac");
    out.metric("loadgen.lateness_ms_p99", windowed(all[1].lateness_ms, 0.99), "ms");
    out.metric("serve.latency_p50_ms", windowed(all[1].latency_ms, 0.5), "ms");
    out.metric("serve.latency_p99_ms", windowed(all[1].latency_ms, 0.99), "ms");
    out.metric("trace_overhead_frac",
               windowed(all[1].latency_ms, 0.5) /
                       windowed(all[0].latency_ms, 0.5) - 1,
               "frac");
    tracer.write_json(ctx.work_dir / "trace_serve_open.json");
  }
  return out;
}

}  // namespace perfbench
