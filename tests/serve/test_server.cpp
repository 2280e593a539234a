// The supervised server end to end, over real loopback sockets: admission
// control (503 when the bounded queue is full), per-request deadlines (504),
// worker crash supervision (injected ServeWorkerFail, retried), stats, and
// the graceful-drain contract (finish in-flight work, then exact counters).

#include "serve/server.hpp"

#include "api/stamp.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace stamp::serve {
namespace {

using ReadStatus = Socket::ReadStatus;

/// Send `lines` over one connection and read exactly `expect` response
/// lines (any order — the workers race), failing the test on timeout.
std::vector<std::string> call(std::uint16_t port,
                              const std::vector<std::string>& lines,
                              std::size_t expect) {
  Socket sock = Socket::connect_to(port);
  EXPECT_TRUE(sock.valid());
  for (const std::string& line : lines) {
    EXPECT_TRUE(sock.write_all(line));
    EXPECT_TRUE(sock.write_all("\n"));
  }
  std::vector<std::string> responses;
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (responses.size() < expect &&
         std::chrono::steady_clock::now() < deadline) {
    const ReadStatus status = sock.read_line(line, /*timeout_ms=*/1000);
    if (status == ReadStatus::Line)
      responses.push_back(line);
    else if (status != ReadStatus::Timeout)
      break;
  }
  EXPECT_EQ(responses.size(), expect);
  return responses;
}

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

bool has_status(const std::string& line, int status) {
  return line.find("\"status\":" + std::to_string(status)) !=
         std::string::npos;
}

std::size_t count_with_status(const std::vector<std::string>& lines,
                              int status) {
  std::size_t n = 0;
  for (const std::string& line : lines)
    if (has_status(line, status)) ++n;
  return n;
}

TEST(Server, ServesRequestsAndDrainsCleanly) {
  ServerOptions options;
  Server server(options);
  server.start();
  ASSERT_NE(server.port(), 0);

  const auto responses = call(server.port(),
                              {
                                  R"({"id":1,"op":"evaluate","index":0})",
                                  R"({"id":2,"op":"best_placement","processes":4})",
                                  R"({"id":3,"op":"stats"})",
                              },
                              3);
  EXPECT_EQ(count_with_status(responses, 200), 3u);

  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.accepted, 2u);  // stats is answered inline, not queued
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.bad_requests, 0u);
  server.drain();  // idempotent
}

TEST(Server, ResponsesMatchADirectEngineByteForByte) {
  ServerOptions options;
  Server server(options);
  server.start();
  const std::string line = R"({"id":7,"op":"evaluate","index":3})";
  const auto responses = call(server.port(), {line}, 1);
  ASSERT_EQ(responses.size(), 1u);

  ServeEngine truth{EngineOptions{}};
  EXPECT_EQ(responses[0], truth.handle(parse_request(line), nullptr));
}

TEST(Server, MalformedLinesAnswer400AndCountAsBadRequests) {
  ServerOptions options;
  Server server(options);
  server.start();
  const auto responses = call(server.port(),
                              {
                                  "this is not json",
                                  R"({"id":5,"op":"teleport"})",
                              },
                              2);
  EXPECT_EQ(count_with_status(responses, 400), 2u);
  // The op error happened after the id was parsed, so it carries id 5.
  EXPECT_EQ(count_with_status(responses, 200), 0u);
  bool saw_id5 = false;
  for (const std::string& r : responses)
    if (r.find("\"id\":5") != std::string::npos) saw_id5 = true;
  EXPECT_TRUE(saw_id5);
  server.drain();
  EXPECT_EQ(server.stats().bad_requests, 2u);
}

// A full admission queue answers 503 instead of queueing unboundedly: one
// worker is pinned by a long burn, the queue holds one more, and everything
// past that must be rejected — but the accepted jobs still finish and the
// drain still comes back clean.
TEST(Server, OverloadAnswers503AndBoundsTheQueue) {
  ServerOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  Server server(options);
  server.start();

  std::vector<std::string> lines;
  lines.emplace_back(R"({"id":1,"op":"burn","busy_ms":400})");
  for (int i = 2; i <= 8; ++i)
    lines.push_back(R"({"id":)" + std::to_string(i) +
                    R"(,"op":"burn","busy_ms":400})");
  const auto responses = call(server.port(), lines, lines.size());

  const std::size_t ok = count_with_status(responses, 200);
  const std::size_t overloaded = count_with_status(responses, 503);
  EXPECT_EQ(ok + overloaded, lines.size());
  EXPECT_GE(overloaded, 1u) << "queue of 1 never filled under 8 requests";
  EXPECT_GE(ok, 1u);

  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_overload, overloaded);
  EXPECT_EQ(stats.accepted + stats.rejected_overload, lines.size());
}

TEST(Server, DeadlineTripsLongRequestsTo504) {
  ServerOptions options;
  options.default_deadline = std::chrono::milliseconds(50);
  Server server(options);
  server.start();

  // The burn would run for 10s; the deadline must cut it to a 504 quickly.
  const auto start = std::chrono::steady_clock::now();
  const auto responses = call(
      server.port(), {R"({"id":1,"op":"burn","busy_ms":10000})"}, 1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(has_status(responses[0], 504)) << responses[0];
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  server.drain();
  EXPECT_GE(server.stats().deadline_hits, 1u);
}

TEST(Server, PerRequestDeadlineOverridesTheDefault) {
  ServerOptions options;  // no default deadline
  Server server(options);
  server.start();
  const auto responses = call(
      server.port(),
      {R"({"id":1,"op":"burn","busy_ms":10000,"deadline_ms":50})"}, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(has_status(responses[0], 504)) << responses[0];
  server.drain();
}

// An injected worker crash (ServeWorkerFail, keyed by request id) is caught
// by the supervisor and the job retried: the client still gets its 200 and
// the restart is counted.
TEST(Server, SupervisorRetriesCrashedWorkers) {
  fault::FaultPlan plan;
  plan.seed = 1;
  plan.with(fault::FaultSite::ServeWorkerFail, 1.0, 0, /*max_per_key=*/1);
  Evaluator::with_faults(plan);

  ServerOptions options;
  Server server(options);
  server.start();
  const std::string line = R"({"id":1,"op":"evaluate","index":2})";
  const auto responses = call(server.port(), {line}, 1);
  server.drain();
  Evaluator::clear_faults();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(has_status(responses[0], 200)) << responses[0];
  EXPECT_EQ(server.stats().worker_restarts, 1u);

  ServeEngine truth{EngineOptions{}};
  EXPECT_EQ(responses[0], truth.handle(parse_request(line), nullptr));
}

// A crash budget that runs out surfaces as a 500, not a hang or a lost job.
TEST(Server, ExhaustedSupervisionBudgetAnswers500) {
  fault::FaultPlan plan;
  plan.seed = 1;
  plan.with(fault::FaultSite::ServeWorkerFail, 1.0);  // crash every attempt
  Evaluator::with_faults(plan);

  ServerOptions options;
  options.supervision = fault::RetryPolicy::bounded(2);
  Server server(options);
  server.start();
  const auto responses =
      call(server.port(), {R"({"id":1,"op":"evaluate","index":0})"}, 1);
  server.drain();
  Evaluator::clear_faults();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(has_status(responses[0], 500)) << responses[0];
  EXPECT_GE(server.stats().worker_restarts, 1u);
}

TEST(Server, DrainedServerRefusesNewWork) {
  ServerOptions options;
  Server server(options);
  server.start();
  const std::uint16_t port = server.port();
  (void)call(port, {R"({"id":1,"op":"evaluate","index":0})"}, 1);
  server.drain();

  // The listener is closed: new connections must fail (immediately or on
  // first use), never hang.
  Socket sock = Socket::connect_to(port);
  if (sock.valid()) {
    std::string line;
    (void)sock.write_all("{\"id\":2,\"op\":\"stats\"}\n");
    const ReadStatus status = sock.read_line(line, /*timeout_ms=*/2000);
    EXPECT_NE(status, ReadStatus::Line);
  }
}

TEST(Server, StatsResponseReportsQueueAndCache) {
  ServerOptions options;
  Server server(options);
  server.start();
  (void)call(server.port(), {R"({"id":1,"op":"sweep_chunk","begin":0,"end":16})"},
             1);
  const auto responses =
      call(server.port(), {R"({"id":2,"op":"stats"})"}, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"queue_capacity\":64"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find("\"cache\":"), std::string::npos);
  server.drain();
}

TEST(Server, ClientChurnHoldsNoFdsOrReaders) {
  Server server(ServerOptions{});
  server.start();
  const std::size_t fds_before = open_fds();
  const std::size_t readers_before = server.live_readers();

  constexpr std::size_t kClients = 300;
  for (std::size_t i = 0; i < kClients; ++i) {
    Socket sock = Socket::connect_to(server.port());
    ASSERT_TRUE(sock.valid());
    ASSERT_TRUE(sock.write_all(R"({"id":1,"op":"stats"})"
                               "\n"));
    std::string line;
    ASSERT_EQ(sock.read_line(line, /*timeout_ms=*/5000), ReadStatus::Line);
  }  // each client hangs up as its socket goes out of scope

  // The accept loop reaps hung-up readers between polls; the last few
  // clients' readers get a moment to notice their EOF.
  constexpr std::size_t kSlack = 4;
  const auto settled = [&] {
    return open_fds() <= fds_before + kSlack &&
           server.live_readers() <= readers_before + kSlack;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!settled() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(open_fds(), fds_before + kSlack);
  EXPECT_LE(server.live_readers(), readers_before + kSlack);

  server.drain();
  EXPECT_EQ(server.stats().connections, kClients);
}

}  // namespace
}  // namespace stamp::serve
