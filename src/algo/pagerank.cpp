#include "algo/pagerank.hpp"

#include "runtime/barrier.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/instrument.hpp"
#include "shm/swmr_matrix.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>

namespace stamp::algo {
namespace {

struct Block {
  int begin = 0;
  int end = 0;
};

Block block_of(int n, int p, int rank) {
  const int base = n / p;
  const int extra = n % p;
  Block b;
  b.begin = rank * base + std::min(rank, extra);
  b.end = b.begin + base + (rank < extra ? 1 : 0);
  return b;
}

/// Column-stochastic transition structure of g's unit edges.
struct Transition {
  std::vector<int> out_degree;
  [[nodiscard]] bool has_edge(const Graph& g, int u, int v) const {
    return u != v && g.w(u, v) != Graph::kInfinity;
  }
};

Transition build_transition(const Graph& g) {
  Transition t;
  t.out_degree.assign(static_cast<std::size_t>(g.n), 0);
  for (int u = 0; u < g.n; ++u)
    for (int v = 0; v < g.n; ++v)
      if (u != v && g.w(u, v) != Graph::kInfinity)
        ++t.out_degree[static_cast<std::size_t>(u)];
  return t;
}

/// One damped update of rank[v] given the full previous vector.
double update_vertex(const Graph& g, const Transition& t,
                     const std::vector<double>& prev, double damping, int v) {
  const int n = g.n;
  double in_flow = 0;
  double dangling = 0;
  for (int u = 0; u < n; ++u) {
    const int deg = t.out_degree[static_cast<std::size_t>(u)];
    if (deg == 0) {
      if (u != v) dangling += prev[static_cast<std::size_t>(u)];
      continue;
    }
    if (t.has_edge(g, u, v)) in_flow += prev[static_cast<std::size_t>(u)] / deg;
  }
  // Dangling mass spreads uniformly over the other n-1 vertices.
  const double base = (1.0 - damping) / n;
  return base + damping * (in_flow + dangling / std::max(n - 1, 1));
}

}  // namespace

std::vector<double> pagerank_reference(const Graph& g, double damping,
                                       double tolerance, int max_rounds) {
  const int n = g.n;
  const Transition t = build_transition(g);
  std::vector<double> rank(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (int round = 0; round < max_rounds; ++round) {
    double delta = 0;
    for (int v = 0; v < n; ++v) {
      next[static_cast<std::size_t>(v)] = update_vertex(g, t, rank, damping, v);
      delta = std::max(delta, std::abs(next[static_cast<std::size_t>(v)] -
                                       rank[static_cast<std::size_t>(v)]));
    }
    rank.swap(next);
    if (delta < tolerance) break;
  }
  return rank;
}

PageRankResult pagerank_distributed(const Graph& g, const Topology& topology,
                                    const PageRankOptions& options) {
  const int n = g.n;
  const int p = options.processes;
  if (p < 1 || p > n)
    throw std::invalid_argument("pagerank: need 1 <= processes <= n");
  if (options.damping <= 0 || options.damping >= 1)
    throw std::invalid_argument("pagerank: damping must be in (0, 1)");

  const Transition trans = build_transition(g);
  const runtime::PlacementMap placement =
      runtime::PlacementMap::for_distribution(topology, p,
                                              options.distribution);

  std::vector<Block> blocks(static_cast<std::size_t>(p));
  int widest = 0;
  for (int r = 0; r < p; ++r) {
    blocks[static_cast<std::size_t>(r)] = block_of(n, p, r);
    widest = std::max(widest, blocks[static_cast<std::size_t>(r)].end -
                                  blocks[static_cast<std::size_t>(r)].begin);
  }
  shm::SwmrMatrix<double> ranks(p, std::max(widest, 1), 0.0);
  for (int r = 0; r < p; ++r) {
    const Block b = blocks[static_cast<std::size_t>(r)];
    for (int v = b.begin; v < b.end; ++v) ranks.poke(r, v - b.begin, 1.0 / n);
  }

  auto owner_of = [&](int v) {
    for (int r = 0; r < p; ++r)
      if (v >= blocks[static_cast<std::size_t>(r)].begin &&
          v < blocks[static_cast<std::size_t>(r)].end)
        return r;
    return p - 1;
  };

  runtime::PhaseBarrier barrier(p);
  std::vector<std::atomic<int>> round_converged(
      static_cast<std::size_t>(options.max_rounds));
  for (auto& f : round_converged) f.store(0, std::memory_order_relaxed);
  runtime::QuiescenceDetector quiescence(p);

  std::vector<int> rounds_done(static_cast<std::size_t>(p), 0);

  runtime::RunResult run = runtime::run_processes(placement, [&](runtime::Context&
                                                                     ctx) {
    const int me = ctx.id();
    const Block block = blocks[static_cast<std::size_t>(me)];
    const int width = block.end - block.begin;

    auto snapshot_ranks = [&](std::vector<double>& prev) {
      const std::vector<double> snap = ranks.read_all(ctx);
      for (int v = 0; v < n; ++v) {
        const int r = owner_of(v);
        prev[static_cast<std::size_t>(v)] =
            snap[static_cast<std::size_t>(r) * ranks.cols() +
                 (v - blocks[static_cast<std::size_t>(r)].begin)];
      }
    };

    std::vector<double> prev(static_cast<std::size_t>(n), 0.0);
    std::vector<double> mine(static_cast<std::size_t>(std::max(width, 1)), 0.0);

    // One damped sweep of the owned block. Under async_comm, sub-tolerance
    // updates are not published, so the publication counter settles once
    // every block sits within tolerance of the (contraction) fixed point.
    auto damped_sweep = [&](bool publish_only_significant) {
      const runtime::UnitScope unit(ctx.recorder());
      ctx.int_ops(1);
      double delta = 0;
      bool published = false;
      {
        const runtime::RoundScope round(ctx.recorder());
        snapshot_ranks(prev);
        for (int v = block.begin; v < block.end; ++v) {
          const double updated =
              update_vertex(g, trans, prev, options.damping, v);
          delta = std::max(delta,
                           std::abs(updated - prev[static_cast<std::size_t>(v)]));
          mine[static_cast<std::size_t>(v - block.begin)] = updated;
        }
        // ~2 fp ops per (u, v) pair examined plus the damped combine.
        ctx.fp_ops(2.0 * width * n + 3.0 * width);
        ctx.int_ops(static_cast<double>(width) * n);
        if (!publish_only_significant || delta >= options.tolerance) {
          for (int v = block.begin; v < block.end; ++v)
            ranks.write(ctx, me, v - block.begin,
                        mine[static_cast<std::size_t>(v - block.begin)]);
          published = true;
        }
      }
      ctx.int_ops(2);
      return std::pair<bool, double>(published, delta);
    };

    if (options.comm == CommMode::Synchronous) {
      for (int t = 0; t < options.max_rounds; ++t) {
        const double delta = damped_sweep(false).second;
        rounds_done[static_cast<std::size_t>(me)] = t + 1;
        if (delta < options.tolerance)
          round_converged[static_cast<std::size_t>(t)].fetch_add(
              1, std::memory_order_acq_rel);
        barrier.arrive_and_wait();
        if (round_converged[static_cast<std::size_t>(t)].load(
                std::memory_order_acquire) == p)
          break;
      }
    } else {
      // A chaotic sweep may see only one peer's new block, so reaching the
      // tolerance can take up to one publishing sweep per peer publication:
      // the budget is max_rounds per process, not max_rounds in total.
      rounds_done[static_cast<std::size_t>(me)] = runtime::run_to_quiescence(
          quiescence, me, [&] { return damped_sweep(true).first; },
          options.max_rounds * p);
    }
  });

  PageRankResult result{.ranks = std::vector<double>(static_cast<std::size_t>(n)),
                        .rounds = rounds_done,
                        .run = std::move(run),
                        .placement = placement};
  for (int r = 0; r < p; ++r) {
    const Block b = blocks[static_cast<std::size_t>(r)];
    for (int v = b.begin; v < b.end; ++v)
      result.ranks[static_cast<std::size_t>(v)] = ranks.peek(r, v - b.begin);
  }
  return result;
}

}  // namespace stamp::algo
