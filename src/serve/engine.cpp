#include "serve/engine.hpp"

#include "fault/retry.hpp"
#include "obs/span.hpp"
#include "sweep/batch.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace stamp::serve {
namespace {

sweep::SweepConfig resolve_grid(const std::string& name,
                                std::size_t cache_entries_per_shard) {
  sweep::SweepConfig cfg;
  if (name == "tiny") {
    cfg = sweep::SweepConfig::tiny();
  } else if (name == "canonical") {
    cfg = sweep::SweepConfig::canonical();
  } else {
    throw std::invalid_argument("serve: unknown grid preset '" + name +
                                "' (expected tiny|canonical)");
  }
  // The engine owns a policy cache; the config's own per-sweep bound must
  // not fight it (BatchEvaluator reads the cache it is handed, not this).
  cfg.cache_entries_per_shard = cache_entries_per_shard;
  return cfg;
}

sweep::CacheOptions cache_options(const EngineOptions& options) {
  sweep::CacheOptions cache;
  cache.shards = options.cache_shards;
  cache.max_entries_per_shard = options.cache_entries_per_shard;
  cache.ttl = options.cache_ttl;
  cache.admission = options.cache_admission;
  return cache;
}

EvaluatorOptions evaluator_options(const sweep::SweepConfig& cfg) {
  EvaluatorOptions options;
  options.machine = cfg.base;
  options.objective = cfg.objective;
  return options;
}

bool tripped(const core::CancelToken* cancel) noexcept {
  return cancel != nullptr && cancel->cancelled();
}

}  // namespace

ServeEngine::ServeEngine(const EngineOptions& options)
    : options_(options),
      config_(resolve_grid(options.grid, options.cache_entries_per_shard)),
      cache_(cache_options(options)),
      evaluator_(evaluator_options(config_)) {
  grid_points_ = config_.grid.size();
  axis_names_.reserve(config_.grid.axes().size());
  for (const sweep::GridAxis& axis : config_.grid.axes())
    axis_names_.push_back(axis.name);
}

std::string ServeEngine::handle(const ServeRequest& request,
                                const core::CancelToken* cancel) {
  // to_string returns string literals, so .data() is null-terminated.
  const obs::ScopedSpan span =
      obs::ScopedSpan::if_enabled(to_string(request.kind).data(), "serve");
  try {
    switch (request.kind) {
      case RequestKind::Evaluate:
        return handle_evaluate(request, cancel);
      case RequestKind::SweepChunk:
        return handle_sweep_chunk(request, cancel);
      case RequestKind::Search:
        return handle_search(request, cancel);
      case RequestKind::BestPlacement:
        return handle_best_placement(request);
      case RequestKind::Burn:
        return handle_burn(request, cancel);
      case RequestKind::Stats:
        // Queue depth and acceptance counters live in the server layer; an
        // engine asked directly has nothing truthful to say.
        return error_response(request.id, 400,
                              "stats is answered by the server");
    }
    return error_response(request.id, 400, "unknown op");
  } catch (const fault::DeadlineExceeded&) {
    return error_response(request.id, 504, "deadline exceeded");
  } catch (const std::invalid_argument& e) {
    return error_response(request.id, 400, e.what());
  } catch (const std::out_of_range& e) {
    return error_response(request.id, 400, e.what());
  } catch (const std::exception& e) {
    return error_response(request.id, 500, e.what());
  }
}

std::string ServeEngine::handle_evaluate(const ServeRequest& request,
                                         const core::CancelToken* cancel) {
  if (request.index >= grid_points_)
    return error_response(request.id, 400, "index out of range");
  const auto index = static_cast<std::size_t>(request.index);
  std::vector<sweep::SweepRecord> records(1);
  sweep::SweepOptions options;
  options.cancel = cancel;
  sweep::BatchEvaluator evaluator(config_, &cache_, options,
                                  /*record_offset=*/index);
  static_cast<void>(evaluator.run(nullptr, index, index + 1, records));
  if (tripped(cancel))
    return error_response(request.id, 504, "deadline exceeded");
  return ok_evaluate(request.id, axis_names_, records.front());
}

std::string ServeEngine::handle_sweep_chunk(const ServeRequest& request,
                                            const core::CancelToken* cancel) {
  if (request.begin > request.end || request.end > grid_points_)
    return error_response(request.id, 400, "bad chunk range");
  if (request.end - request.begin > options_.max_chunk_points)
    return error_response(request.id, 400, "chunk too large");
  const auto begin = static_cast<std::size_t>(request.begin);
  const auto end = static_cast<std::size_t>(request.end);
  std::vector<sweep::SweepRecord> records(end - begin);
  sweep::SweepOptions options;
  options.cancel = cancel;
  sweep::BatchEvaluator evaluator(config_, &cache_, options,
                                  /*record_offset=*/begin);
  static_cast<void>(evaluator.run(nullptr, begin, end, records));
  if (tripped(cancel))
    return error_response(request.id, 504, "deadline exceeded");
  return ok_sweep_chunk(request.id, axis_names_, request.begin, records);
}

std::string ServeEngine::handle_search(const ServeRequest& request,
                                       const core::CancelToken* cancel) {
  SearchRequest search;
  search.config = config_;
  search.method = request.method;
  search.seed = request.seed;
  search.threads = 1;
  search.record_trace = false;
  search.cancel = cancel;
  const SearchResult result = evaluator_.optimize(search);
  if (result.cancelled)
    return error_response(request.id, 504, "deadline exceeded");
  return ok_search(request.id, axis_names_, result);
}

std::string ServeEngine::handle_best_placement(const ServeRequest& request) {
  const std::vector<ProcessProfile> profiles(
      static_cast<std::size_t>(request.processes),
      sweep::strong_scaled(config_.profile, request.processes));
  const PlacementResult result = evaluator_.best_placement(profiles);
  return ok_best_placement(request.id, request.processes, result);
}

std::string ServeEngine::handle_burn(const ServeRequest& request,
                                     const core::CancelToken* cancel) {
  // A load-generator op: occupy this worker for busy_ms, yielding to the
  // cancel token — it is how the overload and deadline paths are exercised
  // without depending on how fast the model evaluates on a given machine.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(request.busy_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (tripped(cancel))
      return error_response(request.id, 504, "deadline exceeded");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (tripped(cancel))
    return error_response(request.id, 504, "deadline exceeded");
  return ok_burn(request.id, request.busy_ms);
}

}  // namespace stamp::serve
