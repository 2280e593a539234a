#include "api/evaluator.hpp"

#include "machine/trace.hpp"
#include "search/search.hpp"

#include <ostream>
#include <sstream>
#include <utility>

namespace stamp {

Evaluator::Evaluator(EvaluatorOptions options) : options_(std::move(options)) {
  options_.machine.validate();
  if (options_.tracing) obs::set_tracing_enabled(true);
  if (options_.metrics) obs::set_metrics_enabled(true);
}

RunOutcome Evaluator::run(int processes, Distribution distribution,
                          const runtime::ProcessBody& body) const {
  RunOutcome out;
  out.placement = runtime::PlacementMap::for_distribution(
      options_.machine.topology, processes, distribution);
  out.run = runtime::run_processes(out.placement, body);
  return out;
}

Evaluation Evaluator::evaluate(const runtime::RunResult& run,
                               const runtime::PlacementMap& placement) const {
  const MachineModel& m = options_.machine;
  Evaluation ev;
  ev.process_costs = run.process_costs(placement, m.params, m.energy);
  ev.total = run.total_cost(placement, m.params, m.energy);
  ev.metrics = metrics_from(ev.total);
  ev.objective_value = metric_value(ev.total, options_.objective);

  std::vector<double> powers;
  std::vector<int> processor_of;
  powers.reserve(ev.process_costs.size());
  processor_of.reserve(ev.process_costs.size());
  for (std::size_t i = 0; i < ev.process_costs.size(); ++i) {
    powers.push_back(ev.process_costs[i].power());
    processor_of.push_back(placement.processor_of(static_cast<int>(i)));
  }
  ev.envelope = check_system(powers, processor_of, m.topology, m.envelope);
  ev.feasible = ev.envelope.feasible;
  return ev;
}

std::pair<RunOutcome, Evaluation> Evaluator::run_and_evaluate(
    int processes, Distribution distribution,
    const runtime::ProcessBody& body) const {
  RunOutcome outcome = run(processes, distribution, body);
  Evaluation ev = evaluate(outcome.run, outcome.placement);
  return {std::move(outcome), std::move(ev)};
}

runtime::SupervisedResult Evaluator::run_supervised(
    int processes, Distribution distribution, const runtime::ProcessBody& body,
    int max_failovers) const {
  const runtime::PlacementMap placement =
      runtime::PlacementMap::for_distribution(options_.machine.topology,
                                              processes, distribution);
  return runtime::run_supervised(placement, body, max_failovers);
}

PlacementResult Evaluator::best_placement(
    std::span<const ProcessProfile> profiles) const {
  return place_best(profiles, options_.machine, options_.objective);
}

machine::SimResult Evaluator::simulate(
    const std::vector<machine::ProcessTrace>& traces,
    const runtime::PlacementMap& placement,
    const machine::SimConfig& config) const {
  return machine::replay(traces, placement, options_.machine, config);
}

machine::SimResult Evaluator::simulate_run(const runtime::RunResult& run,
                                           const runtime::PlacementMap& placement,
                                           CommMode comm,
                                           const machine::SimConfig& config) const {
  std::vector<machine::ProcessTrace> traces;
  traces.reserve(run.recorders.size());
  for (const runtime::Recorder& r : run.recorders)
    traces.push_back(machine::trace_of_recorder(r, comm));
  return machine::replay(traces, placement, options_.machine, config);
}

sweep::SweepResult Evaluator::sweep(const sweep::SweepConfig& config,
                                    const sweep::SweepOptions& options) const {
  if (options.threads <= 1) return sweep::run_sweep(config, nullptr, options);
  // The lock covers the whole run: it both guards the pool cache and
  // serializes concurrent sweep/optimize calls on one Evaluator (the pool
  // supports only one parallel loop at a time anyway).
  std::lock_guard<std::mutex> lock(sweep_pool_mutex_);
  return sweep::run_sweep(config, pool_for(options.threads), options);
}

SearchResult Evaluator::optimize(const SearchRequest& request) const {
  if (request.threads <= 1 || request.method == SearchMethod::Anneal)
    return search::run_search(request, nullptr);
  std::lock_guard<std::mutex> lock(sweep_pool_mutex_);
  return search::run_search(request, pool_for(request.threads));
}

sweep::Pool* Evaluator::pool_for(int threads) const {
  // Caller holds sweep_pool_mutex_.
  if (!sweep_pool_ || sweep_pool_->threads() != threads)
    sweep_pool_ = std::make_unique<sweep::Pool>(threads);
  return sweep_pool_.get();
}

void Evaluator::write_trace(std::ostream& os) {
  obs::write_chrome_trace(obs::TraceRecorder::global().snapshot(), os);
}

std::string Evaluator::trace_json() {
  std::ostringstream ss;
  write_trace(ss);
  return ss.str();
}

void Evaluator::clear_trace() { obs::TraceRecorder::global().clear(); }

void Evaluator::write_metrics(std::ostream& os) {
  obs::MetricsRegistry::global().write_json(os);
}

}  // namespace stamp
