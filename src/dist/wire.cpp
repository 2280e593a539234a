#include "dist/wire.hpp"

#include "models/models.hpp"
#include "report/json.hpp"
#include "sweep/grid.hpp"

#include <string_view>

namespace stamp::dist {
namespace {

using report::format_number;
using report::JsonValue;

double require_number(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind() != JsonValue::Kind::Number)
    throw WireError("sweep_chunk response: missing numeric field '" +
                    std::string(key) + "'");
  return v->as_number();
}

std::uint64_t require_u64(const JsonValue& obj, std::string_view key) {
  const double d = require_number(obj, key);
  if (d < 0 || d != d)
    throw WireError("sweep_chunk response: field '" + std::string(key) +
                    "' must be a nonnegative integer");
  return static_cast<std::uint64_t>(d);
}

sweep::SweepRecord decode_point(const JsonValue& point,
                                const sweep::SweepConfig& cfg,
                                std::vector<double>& scratch) {
  sweep::SweepRecord rec;
  rec.index = static_cast<std::size_t>(require_u64(point, "index"));
  const sweep::ParamGrid& grid = cfg.grid;
  if (rec.index >= grid.size())
    throw WireError("sweep_chunk response: point index " +
                    std::to_string(rec.index) + " outside the grid");

  const JsonValue* params = point.find("params");
  if (params == nullptr || params->kind() != JsonValue::Kind::Object)
    throw WireError("sweep_chunk response: point lacks a params object");
  // Validate the worker's axis values against our own decode of the same
  // index, then keep OUR doubles: the journal must hold the grid's exact
  // bit patterns, not a double that round-tripped through NDJSON.
  const auto& axes = grid.axes();
  scratch.resize(axes.size());
  grid.decode_into(rec.index, scratch);
  if (params->members().size() != axes.size())
    throw WireError("sweep_chunk response: point " + std::to_string(rec.index) +
                    " has " + std::to_string(params->members().size()) +
                    " params, grid has " + std::to_string(axes.size()) +
                    " axes");
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const JsonValue* v = params->find(axes[a].name);
    if (v == nullptr || v->kind() != JsonValue::Kind::Number)
      throw WireError("sweep_chunk response: point " +
                      std::to_string(rec.index) + " lacks axis '" +
                      axes[a].name + "'");
    const report::NumberText got = format_number(v->as_number());
    const report::NumberText want = format_number(scratch[a]);
    if (got.view() != want.view())
      throw WireError("sweep_chunk response: point " +
                      std::to_string(rec.index) + " axis '" + axes[a].name +
                      "' value " + std::string(got.view()) +
                      " contradicts the grid's " + std::string(want.view()));
  }
  rec.params = scratch;

  const double processes = require_number(point, "processes");
  rec.processes = static_cast<int>(processes);
  const JsonValue* feasible = point.find("feasible");
  if (feasible == nullptr || feasible->kind() != JsonValue::Kind::Bool)
    throw WireError("sweep_chunk response: point " + std::to_string(rec.index) +
                    " lacks a boolean 'feasible'");
  rec.feasible = feasible->as_bool();

  const JsonValue* metrics = point.find("metrics");
  if (metrics == nullptr || metrics->kind() != JsonValue::Kind::Object)
    throw WireError("sweep_chunk response: point " + std::to_string(rec.index) +
                    " lacks a metrics object");
  rec.metrics.D = require_number(*metrics, "D");
  rec.metrics.PDP = require_number(*metrics, "PDP");
  rec.metrics.EDP = require_number(*metrics, "EDP");
  rec.metrics.ED2P = require_number(*metrics, "ED2P");

  const JsonValue* models = point.find("models");
  if (models == nullptr || models->kind() != JsonValue::Kind::Object)
    throw WireError("sweep_chunk response: point " + std::to_string(rec.index) +
                    " lacks a models object (worker speaks an older protocol"
                    " revision?)");
  for (int k = 0; k < models::kModelKindCount; ++k)
    rec.classical[static_cast<std::size_t>(k)] = require_number(
        *models, models::to_string(static_cast<models::ModelKind>(k)));
  return rec;
}

}  // namespace

std::optional<std::uint64_t> response_id(const std::string& line) {
  try {
    const JsonValue root = JsonValue::parse(line);
    const JsonValue* id = root.find("id");
    if (id == nullptr || id->kind() != JsonValue::Kind::Number)
      return std::nullopt;
    const double d = id->as_number();
    if (d < 0 || d != d) return std::nullopt;
    return static_cast<std::uint64_t>(d);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

ChunkResult decode_sweep_chunk(const std::string& line,
                               const sweep::SweepConfig& cfg) {
  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const std::exception& e) {
    throw WireError(std::string("sweep_chunk response is not JSON: ") +
                    e.what());
  }
  ChunkResult out;
  out.id = require_u64(root, "id");
  out.status = static_cast<int>(require_number(root, "status"));
  if (out.status != 200) {
    if (const JsonValue* err = root.find("error");
        err != nullptr && err->kind() == JsonValue::Kind::String)
      out.error = err->as_string();
    return out;
  }
  const JsonValue* op = root.find("op");
  if (op == nullptr || op->kind() != JsonValue::Kind::String ||
      op->as_string() != "sweep_chunk")
    throw WireError("response is not a sweep_chunk");
  out.begin = require_u64(root, "begin");
  out.end = require_u64(root, "end");
  if (out.begin > out.end || out.end > cfg.grid.size())
    throw WireError("sweep_chunk response: range [" +
                    std::to_string(out.begin) + ", " + std::to_string(out.end) +
                    ") outside the grid");
  const JsonValue* points = root.find("points");
  if (points == nullptr || points->kind() != JsonValue::Kind::Array)
    throw WireError("sweep_chunk response lacks a points array");
  const std::size_t want = static_cast<std::size_t>(out.end - out.begin);
  if (points->items().size() != want)
    throw WireError("sweep_chunk response: got " +
                    std::to_string(points->items().size()) + " points, want " +
                    std::to_string(want));
  out.records.reserve(want);
  std::vector<double> scratch;
  std::size_t expect = static_cast<std::size_t>(out.begin);
  for (const JsonValue& point : points->items()) {
    sweep::SweepRecord rec = decode_point(point, cfg, scratch);
    if (rec.index != expect)
      throw WireError("sweep_chunk response: point index " +
                      std::to_string(rec.index) + " out of order, want " +
                      std::to_string(expect));
    ++expect;
    out.records.push_back(std::move(rec));
  }
  return out;
}

}  // namespace stamp::dist
