#include "sweep/gate.hpp"

#include "report/json.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace stamp::sweep {
namespace {

using report::JsonValue;

/// Canonical "axis=value,..." key of one point's params object (members keep
/// serialization order, which the schema fixes to grid-axis order).
std::string point_key(const JsonValue& point) {
  const JsonValue* params = point.find("params");
  if (!params || params->kind() != JsonValue::Kind::Object)
    throw std::runtime_error("sweep artifact: point without a params object");
  std::string key;
  for (const auto& [name, value] : params->members()) {
    if (!key.empty()) key += ',';
    key += name;
    key += '=';
    key += report::format_number(value.as_number()).view();
  }
  return key;
}

const std::vector<JsonValue>& points_of(const JsonValue& doc) {
  const JsonValue* points = doc.find("points");
  if (!points || points->kind() != JsonValue::Kind::Array)
    throw std::runtime_error("sweep artifact: missing points array");
  return points->items();
}

bool same_header(const JsonValue& a, const JsonValue& b,
                 std::string_view field) {
  const JsonValue* va = a.find(field);
  const JsonValue* vb = b.find(field);
  if (!va || !vb) return false;
  if (va->kind() == JsonValue::Kind::String &&
      vb->kind() == JsonValue::Kind::String)
    return va->as_string() == vb->as_string();
  if (va->kind() == JsonValue::Kind::Array &&
      vb->kind() == JsonValue::Kind::Array) {
    const auto& ia = va->items();
    const auto& ib = vb->items();
    if (ia.size() != ib.size()) return false;
    for (std::size_t i = 0; i < ia.size(); ++i)
      if (ia[i].as_string() != ib[i].as_string()) return false;
    return true;
  }
  return false;
}

/// Compare one group object ("metrics" or "models") between the two sides.
void compare_group(const std::string& key, const JsonValue& base_point,
                   const JsonValue& fresh_point, std::string_view group,
                   const GateTolerances& tol, GateReport& out) {
  const JsonValue* bg = base_point.find(group);
  const JsonValue* fg = fresh_point.find(group);
  if (!bg || !fg || bg->kind() != JsonValue::Kind::Object ||
      fg->kind() != JsonValue::Kind::Object) {
    out.issues.push_back({GateIssue::Kind::MissingMetric, key,
                          std::string(group), 0, 0, 0});
    return;
  }
  // Union of metric names, baseline order first: a metric present on only
  // one side is itself drift (the schema changed under the baseline).
  auto check_one = [&](const std::string& name) {
    const JsonValue* bv = bg->find(name);
    const JsonValue* fv = fg->find(name);
    if (!bv || !fv) {
      out.issues.push_back(
          {GateIssue::Kind::MissingMetric, key, name, 0, 0, 0});
      return;
    }
    if (bv->is_null() || fv->is_null() ||
        bv->kind() != JsonValue::Kind::Number ||
        fv->kind() != JsonValue::Kind::Number) {
      out.issues.push_back({GateIssue::Kind::NotANumber, key, name, 0, 0, 0});
      return;
    }
    const double b = bv->as_number();
    const double f = fv->as_number();
    if (std::isnan(b) || std::isnan(f)) {
      out.issues.push_back({GateIssue::Kind::NotANumber, key, name, b, f, 0});
      return;
    }
    const double diff = std::abs(f - b);
    const double denom = std::max(std::abs(b), std::abs(f));
    // Exactly-at-tolerance passes: the gate bound is `diff <= tol * denom`.
    if (diff > tol.for_metric(name) * denom) {
      out.issues.push_back({GateIssue::Kind::Drift, key, name, b, f,
                            denom > 0 ? diff / denom : 0.0});
    }
  };
  for (const auto& [name, unused] : bg->members()) {
    (void)unused;
    check_one(name);
  }
  for (const auto& [name, unused] : fg->members()) {
    (void)unused;
    if (!bg->find(name)) check_one(name);
  }
}

}  // namespace

double GateTolerances::for_metric(std::string_view name) const noexcept {
  if (name == "D") return D;
  if (name == "PDP") return PDP;
  if (name == "EDP") return EDP;
  if (name == "ED2P") return ED2P;
  return models;
}

std::string GateIssue::describe() const {
  std::ostringstream ss;
  switch (kind) {
    case Kind::MissingInBaseline:
      ss << "point not in baseline (stale baseline?): " << point;
      break;
    case Kind::MissingInFresh:
      ss << "baseline point missing from fresh sweep: " << point;
      break;
    case Kind::MissingMetric:
      ss << "metric '" << metric << "' missing at " << point;
      break;
    case Kind::NotANumber:
      ss << "metric '" << metric << "' is NaN/null at " << point;
      break;
    case Kind::FeasibilityFlip:
      ss << "feasibility flipped at " << point;
      break;
    case Kind::Drift:
      ss << "drift in '" << metric << "' at " << point << ": baseline "
         << report::format_number(baseline).view() << " -> fresh "
         << report::format_number(fresh).view() << " (rel "
         << report::format_number(relative).view() << ")";
      break;
    case Kind::SchemaMismatch:
      ss << "schema/axes/workload mismatch between baseline and fresh sweep";
      break;
  }
  return ss.str();
}

GateReport compare_sweeps(const JsonValue& baseline, const JsonValue& fresh,
                          const GateTolerances& tol) {
  GateReport out;

  for (std::string_view field : {"schema", "workload", "axes"}) {
    if (!same_header(baseline, fresh, field)) {
      out.issues.push_back(
          {GateIssue::Kind::SchemaMismatch, "", std::string(field), 0, 0, 0});
      out.ok = false;
      return out;  // keys would not line up; point diffs would be noise
    }
  }

  const auto& base_points = points_of(baseline);
  const auto& fresh_points = points_of(fresh);

  std::unordered_map<std::string, const JsonValue*> base_by_key;
  base_by_key.reserve(base_points.size());
  for (const JsonValue& p : base_points) base_by_key.emplace(point_key(p), &p);

  std::unordered_map<std::string, bool> seen;
  seen.reserve(base_points.size());

  for (const JsonValue& fp : fresh_points) {
    const std::string key = point_key(fp);
    const auto it = base_by_key.find(key);
    if (it == base_by_key.end()) {
      out.issues.push_back(
          {GateIssue::Kind::MissingInBaseline, key, "", 0, 0, 0});
      continue;
    }
    seen[key] = true;
    const JsonValue& bp = *it->second;
    ++out.points_compared;

    const JsonValue* bf = bp.find("feasible");
    const JsonValue* ff = fp.find("feasible");
    if (bf && ff && bf->kind() == JsonValue::Kind::Bool &&
        ff->kind() == JsonValue::Kind::Bool &&
        bf->as_bool() != ff->as_bool()) {
      out.issues.push_back(
          {GateIssue::Kind::FeasibilityFlip, key, "feasible", 0, 0, 0});
    }
    compare_group(key, bp, fp, "metrics", tol, out);
    compare_group(key, bp, fp, "models", tol, out);
  }

  for (const JsonValue& bp : base_points) {
    const std::string key = point_key(bp);
    if (!seen.contains(key))
      out.issues.push_back({GateIssue::Kind::MissingInFresh, key, "", 0, 0, 0});
  }

  out.ok = out.issues.empty();
  return out;
}

GateReport compare_sweeps_text(std::string_view baseline, std::string_view fresh,
                               const GateTolerances& tol) {
  return compare_sweeps(JsonValue::parse(baseline), JsonValue::parse(fresh),
                        tol);
}

void print_report(const GateReport& report, std::ostream& os) {
  for (const GateIssue& issue : report.issues)
    os << "GATE: " << issue.describe() << "\n";
  if (report.ok) {
    os << "gate OK: " << report.points_compared
       << " points within tolerance\n";
  } else {
    os << "gate FAILED: " << report.issues.size() << " issue(s) over "
       << report.points_compared << " compared points\n";
  }
}

}  // namespace stamp::sweep
