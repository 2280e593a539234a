#pragma once
/// \file pagerank.hpp
/// \brief PageRank-style damped iteration — a second iterative-fixed-point
///        workload (after Jacobi/APSP) exercising the SWMR shared-memory
///        pattern with floating-point convergence.
///
/// Process i owns a block of rank entries. Synchronous variant: barriered
/// power iteration (every round sees exactly the previous iterate, like the
/// paper's Jacobi). Asynchronous variant: chaotic iteration — processes sweep
/// at their own pace reading whatever ranks are published; the damped
/// iteration is a contraction, so it still converges to the same fixed point
/// (within tolerance rather than bitwise).

#include "algo/apsp.hpp"  // Graph
#include "core/attributes.hpp"
#include "core/params.hpp"
#include "runtime/executor.hpp"

#include <vector>

namespace stamp::algo {

struct PageRankOptions {
  int processes = 8;
  double damping = 0.85;
  double tolerance = 1e-10;  ///< max |r_v(t+1) - r_v(t)| termination
  /// Synchronous: barriered rounds. Asynchronous: publishing sweeps per
  /// process, times `processes` (peers publish at their own pace).
  int max_rounds = 200;
  CommMode comm = CommMode::Synchronous;
  Distribution distribution = Distribution::InterProc;
};

struct PageRankResult {
  std::vector<double> ranks;
  std::vector<int> rounds;
  runtime::RunResult run;
  runtime::PlacementMap placement;
};

/// Distributed PageRank over g's finite-weight edges (weights ignored;
/// dangling vertices redistribute uniformly).
[[nodiscard]] PageRankResult pagerank_distributed(const Graph& g,
                                                  const Topology& topology,
                                                  const PageRankOptions& options);

/// Sequential reference power iteration with the same parameters.
[[nodiscard]] std::vector<double> pagerank_reference(const Graph& g,
                                                     double damping,
                                                     double tolerance,
                                                     int max_rounds);

}  // namespace stamp::algo
