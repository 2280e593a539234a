#include "serve/server.hpp"

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "report/json.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace stamp::serve {
namespace {

/// The injected fail-stop of a serve worker attempt. Internal to the
/// supervision loop: a crash is always caught there, so it never crosses the
/// module boundary.
class WorkerCrash : public std::runtime_error {
 public:
  explicit WorkerCrash(std::uint64_t request)
      : std::runtime_error("injected worker crash on request " +
                           std::to_string(request)) {}
};

/// Fires the ServeWorkerFail site (keyed by request id) when armed.
void maybe_crash(std::uint64_t request_id) {
  if (!fault::injection_enabled()) return;
  if (fault::Injector::current().decide(fault::FaultSite::ServeWorkerFail,
                                       request_id))
    throw WorkerCrash(request_id);
}

void count_metric(const char* name) {
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter(name).add();
}

constexpr int kPollMs = 100;  ///< loop granularity for noticing drain

}  // namespace

// -- DeadlineScheduler --------------------------------------------------------

void Server::DeadlineScheduler::start() {
  thread_ = std::thread([this] { loop(); });
}

void Server::DeadlineScheduler::stop() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Server::DeadlineScheduler::add(
    std::chrono::steady_clock::time_point when,
    std::shared_ptr<core::CancelToken> token) {
  {
    const std::scoped_lock lock(mutex_);
    heap_.push(Item{when, std::move(token)});
  }
  cv_.notify_one();
}

void Server::DeadlineScheduler::loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (stop_) return;
    if (heap_.empty()) {
      cv_.wait(lock);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (heap_.top().when <= now) {
      // request_cancel is one atomic store — cheap enough to do under the
      // lock, and doing so keeps the heap pop atomic with the trip.
      heap_.top().token->request_cancel();
      count_metric("serve.deadline");
      heap_.pop();
      continue;
    }
    cv_.wait_until(lock, heap_.top().when);
  }
}

// -- Server -------------------------------------------------------------------

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      engine_(options_.engine),
      mailbox_(options_.queue_depth == 0 ? 1 : options_.queue_depth) {
  if (options_.workers < 1) options_.workers = 1;
  options_.supervision.validate();
}

Server::~Server() { drain(); }

void Server::start() {
  const std::scoped_lock lock(lifecycle_mutex_);
  if (started_) return;
  listener_ = Listener::open(options_.port);
  port_ = listener_.local_port();
  injector_ = &fault::Injector::current();
  deadlines_.start();
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    workers_.emplace_back([this] {
      const fault::InjectorScope scope(*injector_);
      worker_loop();
    });
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::drain() {
  const std::scoped_lock lock(lifecycle_mutex_);
  if (!started_ || drained_) return;
  draining_.store(true, std::memory_order_relaxed);

  // 1. No new connections: the accept loop notices the flag within one poll.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  // 2. No new requests: readers notice the flag within one poll and exit;
  //    every request they already admitted is safely in the mailbox.
  for (Reader& reader : readers_)
    if (reader.thread.joinable()) reader.thread.join();

  // 3. Finish in-flight: close the mailbox — workers drain the remaining
  //    queue, then receive() throws and they exit.
  mailbox_.close();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();

  deadlines_.stop();

  // 4. Only now hang up: every admitted job has had its response written.
  {
    const std::scoped_lock readers_lock(readers_mutex_);
    for (const Reader& reader : readers_) {
      reader.conn->sock.shutdown_both();
      reader.conn->sock.close();
    }
    readers_.clear();
  }

  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global()
        .gauge("serve.queue_depth")
        .set(0.0);
  }
  drained_ = true;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = stats_.connections.load(std::memory_order_relaxed);
  s.requests = stats_.requests.load(std::memory_order_relaxed);
  s.accepted = stats_.accepted.load(std::memory_order_relaxed);
  s.rejected_overload =
      stats_.rejected_overload.load(std::memory_order_relaxed);
  s.rejected_draining =
      stats_.rejected_draining.load(std::memory_order_relaxed);
  s.bad_requests = stats_.bad_requests.load(std::memory_order_relaxed);
  s.deadline_hits = stats_.deadline_hits.load(std::memory_order_relaxed);
  s.worker_restarts = stats_.worker_restarts.load(std::memory_order_relaxed);
  s.responses = stats_.responses.load(std::memory_order_relaxed);
  s.write_errors = stats_.write_errors.load(std::memory_order_relaxed);
  return s;
}

std::size_t Server::live_readers() const {
  const std::scoped_lock lock(readers_mutex_);
  return readers_.size();
}

void Server::accept_loop() {
  while (!draining()) {
    reap_readers();
    std::optional<Socket> sock = listener_.accept_for(kPollMs);
    if (!sock.has_value()) continue;
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    count_metric("serve.accept");
    auto conn = std::make_shared<Conn>(std::move(*sock));
    std::thread thread([this, conn] {
      const fault::InjectorScope scope(*injector_);
      reader_loop(conn);
      conn->hung_up.store(true, std::memory_order_release);
    });
    const std::scoped_lock lock(readers_mutex_);
    readers_.push_back(Reader{std::move(conn), std::move(thread)});
  }
}

void Server::reap_readers() {
  const std::scoped_lock lock(readers_mutex_);
  std::erase_if(readers_, [](Reader& reader) {
    if (!reader.conn->hung_up.load(std::memory_order_acquire)) return false;
    reader.thread.join();
    return true;
  });
}

void Server::reader_loop(const std::shared_ptr<Conn>& conn) {
  std::string line;
  while (!draining()) {
    const Socket::ReadStatus status =
        conn->sock.read_line(line, kPollMs);
    if (status == Socket::ReadStatus::Timeout) continue;
    if (status != Socket::ReadStatus::Line) return;  // EOF or error: hang up
    if (line.empty()) continue;

    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    ServeRequest request;
    try {
      request = parse_request(line);
    } catch (const ProtocolError& e) {
      stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      respond(*conn, error_response(e.id(), 400, e.what()));
      continue;
    }
    if (request.kind == RequestKind::Stats) {
      // Answered inline: stats must stay observable even when the queue is
      // jammed — that is exactly when an operator asks.
      respond(*conn, stats_response(request.id));
      continue;
    }
    admit(request, conn);
  }
}

void Server::admit(const ServeRequest& request,
                   const std::shared_ptr<Conn>& conn) {
  Job job;
  job.request = request;
  job.conn = conn;
  job.cancel = std::make_shared<core::CancelToken>();

  const std::uint64_t deadline_ms =
      request.deadline_ms != 0
          ? request.deadline_ms
          : static_cast<std::uint64_t>(options_.default_deadline.count());
  if (deadline_ms != 0)
    deadlines_.add(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms),
                   job.cancel);

  // The actor scope keys the mailbox's injected drop/delay/duplicate
  // decisions by request id: the fault schedule follows the request, not
  // the reader thread — same seed, same faults, any concurrency.
  const fault::ActorScope actor(request.id);
  try {
    const bool queued = mailbox_.send_for(job, options_.admission_wait);
    if (!queued) {
      stats_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      count_metric("serve.reject");
      respond(*conn, error_response(request.id, 503, "overloaded"));
      return;
    }
  } catch (const msg::BoundedMailboxClosed&) {
    stats_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
    count_metric("serve.reject");
    respond(*conn, error_response(request.id, 503, "draining"));
    return;
  }
  stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global()
        .gauge("serve.queue_depth")
        .set(static_cast<double>(mailbox_.size()));
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    try {
      job = mailbox_.receive();
    } catch (const msg::BoundedMailboxClosed&) {
      return;  // drained and closed: done
    }
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global()
          .gauge("serve.queue_depth")
          .set(static_cast<double>(mailbox_.size()));
    execute(job);
  }
}

void Server::execute(Job& job) {
  const std::uint64_t id = job.request.id;
  std::string response;
  if (job.cancel->cancelled()) {
    // Expired while queued: don't burn a worker on a request nobody is
    // waiting for.
    stats_.deadline_hits.fetch_add(1, std::memory_order_relaxed);
    response = error_response(id, 504, "deadline exceeded");
  } else {
    fault::RetryState retry(options_.supervision, /*stream=*/id);
    for (;;) {
      try {
        maybe_crash(id);
        response = engine_.handle(job.request, job.cancel.get());
        break;
      } catch (const WorkerCrash&) {
        // Supervision: the attempt died, the worker survives, the job is
        // re-placed. Determinism holds because the engine is a pure
        // function of the request — a retried attempt produces the same
        // bytes the first attempt would have.
        stats_.worker_restarts.fetch_add(1, std::memory_order_relaxed);
        count_metric("serve.worker_restart");
        if (!retry.allow_retry()) {
          response = error_response(id, 500, "worker crashed");
          break;
        }
        retry.backoff();
      } catch (const std::exception& e) {
        // engine.handle maps its own failures; this is the last-resort net
        // that keeps a worker thread alive no matter what.
        response = error_response(id, 500, e.what());
        break;
      }
    }
    if (job.cancel->cancelled() &&
        response.find("\"status\":504") != std::string::npos)
      stats_.deadline_hits.fetch_add(1, std::memory_order_relaxed);
  }
  respond(*job.conn, response);
}

void Server::respond(Conn& conn, const std::string& line) {
  const std::scoped_lock lock(conn.write_mutex);
  if (conn.sock.write_all(line) && conn.sock.write_all("\n")) {
    stats_.responses.fetch_add(1, std::memory_order_relaxed);
    count_metric("serve.respond");
  } else {
    stats_.write_errors.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string Server::stats_response(std::uint64_t id) {
  const ServerStats s = stats();
  sweep::CostCache& cache = engine_.cache();
  std::ostringstream os;
  report::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kSchema);
  w.kv("id", static_cast<long long>(id));
  w.kv("status", 200);
  w.kv("op", "stats");
  w.kv("queue_depth", static_cast<long long>(mailbox_.size()));
  w.kv("queue_capacity", static_cast<long long>(mailbox_.capacity()));
  w.kv("connections", static_cast<long long>(s.connections));
  w.kv("requests", static_cast<long long>(s.requests));
  w.kv("accepted", static_cast<long long>(s.accepted));
  w.kv("rejected_overload", static_cast<long long>(s.rejected_overload));
  w.kv("rejected_draining", static_cast<long long>(s.rejected_draining));
  w.kv("bad_requests", static_cast<long long>(s.bad_requests));
  w.kv("deadline_hits", static_cast<long long>(s.deadline_hits));
  w.kv("worker_restarts", static_cast<long long>(s.worker_restarts));
  w.kv("responses", static_cast<long long>(s.responses));
  w.kv("write_errors", static_cast<long long>(s.write_errors));
  w.key("cache").begin_object();
  w.kv("hits", static_cast<long long>(cache.hits()));
  w.kv("misses", static_cast<long long>(cache.misses()));
  w.kv("evictions", static_cast<long long>(cache.evictions()));
  w.kv("expirations", static_cast<long long>(cache.expirations()));
  w.kv("admission_rejections",
       static_cast<long long>(cache.admission_rejections()));
  w.kv("size", static_cast<long long>(cache.size()));
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace stamp::serve
