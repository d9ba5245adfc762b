#pragma once

// The three measured phases. A run executes its workload's phase at full
// size for --seconds (the main phase) and then the other two on smaller
// graphs for half as long (companion phases), because every run must
// report every end-to-end metric; Report keeps the main phase's value
// wherever both measured one.

#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "graph/graph.hpp"
#include "spectral/condition_number.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< main-phase measurement window
  bool trace = false;         ///< traced run: per-layer metrics instead of end-to-end
  std::string serve_binary;   ///< the shipped ingrass_serve
  std::string work_dir;       ///< generated inputs, logs and spans
  Report* report = nullptr;
  Tracer* tracer = nullptr;
};

struct PhaseSize {
  bool main = false;          ///< the run's own workload
  double scale = 1.0;         ///< generator scale of the phase's graph
  double seconds = 1.0;       ///< measurement window (minimum work still applies)
};

/// Table II protocol in process: GRASS H(0), Ingrass setup, the seeded
/// insertion stream through Ingrass::insert_edges, kappa and density after.
void run_paper(const Context& ctx, const PhaseSize& size);

/// ingrass_serve --listen with one plain tenant, 3 closed-loop connections
/// sending seeded s-t solves.
void run_solve(const Context& ctx, const PhaseSize& size);

/// ingrass_serve --listen plus two --shard-server children, one tenant per
/// backend (open, open-sharded, open-dist), one closed-loop connection per
/// tenant sending pipelined insert/remove/apply batches and periodic solves.
void run_churn(const Context& ctx, const PhaseSize& size);

/// Condition-number estimator settings of the repository's paper benches
/// (bench/common.cpp bench_cond_options), restated so the benchmark does
/// not link the old harness.
[[nodiscard]] ingrass::ConditionNumberOptions bench_cond_options();

/// Effective resistance between u and v on g by plain Jacobi-PCG to a
/// relative residual of 1e-12: the independent reference for checking
/// served solves. Throws if it does not converge.
[[nodiscard]] double reference_resistance(const ingrass::Graph& g, ingrass::NodeId u,
                                          ingrass::NodeId v);

/// Per-layer kernel metrics on g (traced runs): SpMV and CG vector-pass
/// times with computed bytes and flops, the graph working set against the
/// LLC, the obs cost, and the preconditioner's self time per outer
/// iteration by subtraction from `solver_iter_ms`.
void measure_kernels(const Context& ctx, const ingrass::Graph& g, const ingrass::Graph& h,
                     double solver_iter_ms);

/// STREAM triad bandwidth on arrays totalling at least 4x the LLC, with
/// both sizes (traced runs, once per run).
void measure_stream_bandwidth(const Context& ctx);

/// Solver entry point on (g, h): build, cold solves of the given pairs,
/// and one refresh to (g2, h2). Also times GRASS and the inGRASS setup on g.
/// Returns the median time per outer iteration, ms.
double measure_solver(const Context& ctx, const ingrass::Graph& g, const ingrass::Graph& h,
                    const ingrass::Graph& g2, const ingrass::Graph& h2,
                    const std::vector<std::pair<ingrass::NodeId, ingrass::NodeId>>& pairs);

/// The solve tolerance every default-spec session serves at.
[[nodiscard]] double session_tolerance();

}  // namespace perfbench
