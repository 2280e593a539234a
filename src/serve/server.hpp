#pragma once
/// \file server.hpp
/// \brief The long-running evaluation server: admission control over a
///        bounded queue, per-request deadlines, supervised workers, and
///        graceful drain.
///
/// Thread anatomy (all owned by `Server`):
///
///   accept loop ── one thread polling the listener; each connection gets a
///                  reader thread. Between polls it reaps the readers whose
///                  peer hung up, so client churn holds no fds or threads.
///   readers     ── parse request lines and *admit* them: a
///                  `msg::BoundedMailbox<Job>` is the only path to the
///                  workers, so a full queue is an explicit `503 overloaded`
///                  response, never unbounded memory. Admission runs under a
///                  `fault::ActorScope` keyed by the request id, so the
///                  mailbox's injected drop/delay/duplicate faults follow
///                  the request deterministically.
///   workers     ── `receive()` jobs and execute them on the shared
///                  `ServeEngine`, supervised: an injected
///                  `ServeWorkerFail` crash is caught and the job re-placed
///                  (retried) under `fault::RetryPolicy`; only an exhausted
///                  budget surfaces as a 500.
///   deadline    ── one timer thread holding a min-heap of (deadline,
///                  CancelToken); an overdue request's token is tripped and
///                  the evaluation bails out cooperatively into a 504.
///
/// Workers and readers draw fault decisions from the injector that was
/// current on the thread calling `start()` (it must outlive the server), so
/// a server started inside a chaos trial answers to that trial's private
/// injector.
///
/// `drain()` is the graceful-shutdown contract the tools wire to
/// SIGINT/SIGTERM: stop accepting (new connections *and* new requests),
/// close the mailbox, let the workers finish every admitted job, join
/// everything, then close the connections. Safe to call twice; the
/// destructor calls it as a backstop.

#include "core/cancel.hpp"
#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "msg/bounded_mailbox.hpp"
#include "serve/engine.hpp"
#include "serve/socket.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace stamp::serve {

struct ServerOptions {
  /// 0 = ephemeral; read the real port back with `port()`.
  std::uint16_t port = 0;
  int workers = 2;
  /// Capacity of the admission queue (jobs admitted but not yet executing).
  std::size_t queue_depth = 64;
  /// Per-request deadline when the request carries none; 0 = no deadline.
  std::chrono::milliseconds default_deadline{0};
  /// How long a reader waits for queue space before rejecting with 503.
  /// Zero still goes through the waiting send path (so the fault hooks and
  /// close semantics apply), it just never sleeps.
  std::chrono::milliseconds admission_wait{0};
  /// Worker supervision: retry budget/backoff for crashed attempts.
  fault::RetryPolicy supervision = fault::RetryPolicy::bounded(3);
  EngineOptions engine{};
};

/// Monotonic counters, all exact. `stats` responses and the drained metrics
/// flush read these.
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;           ///< parsed request lines
  std::uint64_t accepted = 0;           ///< admitted to the queue
  std::uint64_t rejected_overload = 0;  ///< 503: queue full
  std::uint64_t rejected_draining = 0;  ///< 503: drain in progress
  std::uint64_t bad_requests = 0;       ///< 400 at the protocol layer
  std::uint64_t deadline_hits = 0;      ///< 504s
  std::uint64_t worker_restarts = 0;    ///< supervised crash retries
  std::uint64_t responses = 0;          ///< lines successfully written
  std::uint64_t write_errors = 0;       ///< responses lost to a gone peer
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, then spawn the worker/deadline/accept threads. Throws
  /// std::runtime_error when the port cannot be bound.
  void start();

  /// The bound port (valid after `start()`).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful shutdown; see the file comment. Idempotent.
  void drain();

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] ServeEngine& engine() noexcept { return engine_; }

  /// Reader threads not yet reaped: the clients still connected, plus any
  /// that hung up since the accept loop's last poll.
  [[nodiscard]] std::size_t live_readers() const;

 private:
  /// One connection shared between its reader thread and the jobs in
  /// flight; the write mutex serializes response lines from workers. The
  /// socket closes with the last owner, so a response still in flight when
  /// the reader is reaped can never land on a reused descriptor.
  struct Conn {
    explicit Conn(Socket s) : sock(std::move(s)) {}
    Socket sock;
    std::mutex write_mutex;
    std::atomic<bool> hung_up{false};  ///< set by the reader as it exits
  };

  struct Reader {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  struct Job {
    ServeRequest request;
    std::shared_ptr<Conn> conn;
    std::shared_ptr<core::CancelToken> cancel;
  };

  /// Min-heap timer thread tripping request CancelTokens at their deadline.
  class DeadlineScheduler {
   public:
    void start();
    void stop();
    void add(std::chrono::steady_clock::time_point when,
             std::shared_ptr<core::CancelToken> token);

   private:
    struct Item {
      std::chrono::steady_clock::time_point when;
      std::shared_ptr<core::CancelToken> token;
      bool operator>(const Item& other) const noexcept {
        return when > other.when;
      }
    };
    void loop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap_;
    bool stop_ = false;
    std::thread thread_;
  };

  void accept_loop();
  void reap_readers();
  void reader_loop(const std::shared_ptr<Conn>& conn);
  void worker_loop();
  void admit(const ServeRequest& request, const std::shared_ptr<Conn>& conn);
  void execute(Job& job);
  void respond(Conn& conn, const std::string& line);
  [[nodiscard]] std::string stats_response(std::uint64_t id);

  ServerOptions options_;
  ServeEngine engine_;
  msg::BoundedMailbox<Job> mailbox_;
  DeadlineScheduler deadlines_;
  Listener listener_;
  std::uint16_t port_ = 0;
  fault::Injector* injector_ = nullptr;  ///< current() at start()

  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool drained_ = false;
  std::mutex lifecycle_mutex_;  ///< serializes start/drain

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  mutable std::mutex readers_mutex_;
  std::vector<Reader> readers_;

  struct AtomicStats {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_overload{0};
    std::atomic<std::uint64_t> rejected_draining{0};
    std::atomic<std::uint64_t> bad_requests{0};
    std::atomic<std::uint64_t> deadline_hits{0};
    std::atomic<std::uint64_t> worker_restarts{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> write_errors{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace stamp::serve
