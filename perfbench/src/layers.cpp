// Per-layer measurements that call a layer's public functions directly:
// solver, linalg kernels with computed roofline context, the reference
// solve used by the output checks.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/ingrass.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/registry.hpp"
#include "phases.hpp"
#include "serve/protocol.hpp"
#include "solver/sparsifier_solver.hpp"
#include "sparsify/grass.hpp"
#include "spectral/laplacian.hpp"

namespace perfbench {

using namespace ingrass;

double session_tolerance() {
  return serve::SessionSpec{}.session_options().solver.outer_tol;
}

double reference_resistance(const Graph& g, NodeId u, NodeId v) {
  const CsrAdjacency csr = build_csr(g);
  const LinOp apply = laplacian_operator(csr);
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  Vec b(n, 0.0), x(n, 0.0), r(n), z(n), p(n), ap(n);
  b[static_cast<std::size_t>(u)] = 1.0;
  b[static_cast<std::size_t>(v)] = -1.0;
  // Jacobi-preconditioned CG on the singular Laplacian, iterates kept
  // orthogonal to the all-ones null space.
  copy(b, r);
  for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / csr.degree[i];
  project_out_ones(z);
  copy(z, p);
  double rz = dot(r, z);
  const double bnorm = norm2(b);
  for (int it = 0; it < 100000; ++it) {
    if (norm2(r) <= 1e-12 * bnorm) return x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
    apply(p, ap);
    const double alpha = rz / dot(p, ap);
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / csr.degree[i];
    project_out_ones(z);
    const double rz_next = dot(r, z);
    xpby(z, rz_next / rz, p);
    rz = rz_next;
  }
  throw std::runtime_error("reference solve did not reach 1e-12");
}

double measure_solver(const Context& ctx, const Graph& g, const Graph& h, const Graph& g2,
                      const Graph& h2, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  Report& rep = *ctx.report;
  Tracer& tr = *ctx.tracer;
  const SparsifierSolver::Options opts = serve::SessionSpec{}.session_options().solver;
  std::unique_ptr<SparsifierSolver> solver;
  {
    ScopedSpan s(tr, "solver.build", 0);
    solver = std::make_unique<SparsifierSolver>(g, h, opts);
  }
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> iters;
  std::vector<double> per_iter_ms;
  std::uint64_t id = 0;
  for (const auto& [u, v] : pairs) {
    Vec b(n, 0.0), x(n, 0.0);
    b[static_cast<std::size_t>(u)] = 1.0;
    b[static_cast<std::size_t>(v)] = -1.0;
    const auto t0 = Clock::now();
    SparsifierSolver::Result r;
    {
      ScopedSpan s(tr, "solver.solve", ++id);
      r = solver->solve(b, x);
    }
    const double ms = seconds_since(t0) * 1e3;
    rep.check(r.converged, "solver entry point: solve did not converge");
    iters.push_back(r.outer_iterations);
    per_iter_ms.push_back(ms / std::max(1, r.outer_iterations));
  }
  {
    ScopedSpan s(tr, "solver.refresh", 0);
    solver->update(g2, h2);
  }
  rep.value("solver.build_ms", median(tr.durations("solver.build")) * 1e3);
  rep.value("solver.solve_ms", median(tr.durations("solver.solve")) * 1e3);
  rep.value("solver.outer_iters", median(iters));
  rep.value("solver.iter_ms", median(per_iter_ms));
  rep.value("solver.refresh_ms", median(tr.durations("solver.refresh")) * 1e3);

  // GRASS and the inGRASS setup on this graph (the set-up a tenant open
  // pays after reading its file).
  GrassOptions gopts;
  gopts.target_offtree_density = 0.10;
  Graph h0;
  {
    ScopedSpan s(tr, "tenant.grass", 0);
    h0 = grass_sparsify(g, gopts).sparsifier;
  }
  {
    ScopedSpan s(tr, "tenant.core_setup", 0);
    Ingrass::Options iopts;
    iopts.target_condition = serve::SessionSpec{}.resolved_target();
    const Ingrass engine(std::move(h0), iopts);
  }
  rep.value("sparsify.grass_s", median(tr.durations("tenant.grass")));
  rep.value("core.setup_s", median(tr.durations("tenant.core_setup")));
  return median(per_iter_ms);
}

namespace {

double llc_bytes() {
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 0.0;
}

/// STREAM triad a = b + s*c over arrays whose total size is at least 4x
/// the LLC; best of 5 passes, GB/s counting 3 arrays moved per pass.
double stream_triad_gbps(double llc, double* total_mib) {
  const double want = std::max(4.0 * llc, 420.0 * 1024 * 1024);
  const std::size_t n = static_cast<std::size_t>(want / (3 * sizeof(double))) + 1;
  *total_mib = 3.0 * static_cast<double>(n) * sizeof(double) / (1024.0 * 1024.0);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 1e30;
  const double s = 3.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    best = std::min(best, seconds_since(t0));
  }
  if (!(a[n / 2] == 7.0)) throw std::runtime_error("stream triad produced a wrong value");
  return 3.0 * static_cast<double>(n) * sizeof(double) / best / 1e9;
}

}  // namespace

void measure_kernels(const Context& ctx, const Graph& g, const Graph& h,
                     double solver_iter_ms) {
  Report& rep = *ctx.report;
  Tracer& tr = *ctx.tracer;
  const CsrAdjacency csr = build_csr(g);
  const LinOp apply = laplacian_operator(csr);
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  const double nd = static_cast<double>(n);
  const double nnz = static_cast<double>(csr.targets.size());
  Rng rng(ctx.seed);
  Vec x(n), y(n), p(n), ap(n), xs(n), r(n), z(n);
  randomize(x, rng);
  randomize(p, rng);
  randomize(z, rng);
  copy(p, r);
  constexpr int kReps = 50;
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan s(tr, "linalg.spmv", 0);
    apply(x, y);
  }
  apply(p, ap);
  double sink = 0.0;
  for (int i = 0; i < kReps; ++i) {
    // The vector work of one outer iteration of SparsifierSolver, in its
    // order: null-space projection, p.Ap, fused x/r update, two r.z dots,
    // direction update.
    ScopedSpan s(tr, "linalg.vector_pass", 0);
    project_out_ones(ap);
    sink += dot(p, ap);
    sink += cg_fused_update(1e-6, p, ap, xs, r);
    sink += dot(r, z);
    sink += dot(r, z);
    xpby(z, 0.5, p);
  }
  if (!std::isfinite(sink)) rep.check(false, "vector pass produced a non-finite value");
  const double spmv_s = median(tr.durations("linalg.spmv"));
  const double vec_s = median(tr.durations("linalg.vector_pass"));
  // Computed traffic: every array streamed once; x gathered once per row.
  const double spmv_bytes = sizeof(EdgeId) * (nd + 1) + (sizeof(NodeId) + sizeof(double)) * nnz +
                            3 * sizeof(double) * nd + sizeof(double) * nd;
  const double spmv_flops = 2 * nnz + 2 * nd;
  // project (read 2n, write n), dot (2n), fused update (read 4n, write 2n),
  // two dots (4n), xpby (read 2n, write n): 18 vectors of n doubles.
  const double vec_bytes = 18 * sizeof(double) * nd;
  const double vec_flops = 16 * nd;
  rep.value("linalg.spmv_ms", spmv_s * 1e3);
  rep.value("linalg.vector_pass_ms", vec_s * 1e3);
  rep.value("linalg.spmv_bytes_computed", spmv_bytes);
  rep.value("linalg.spmv_flops_computed", spmv_flops);
  rep.value("linalg.vector_pass_bytes_computed", vec_bytes);
  rep.value("linalg.vector_pass_flops_computed", vec_flops);
  rep.value("linalg.spmv_gbps_computed", spmv_bytes / spmv_s / 1e9);
  rep.value("linalg.vector_pass_gbps_computed", vec_bytes / vec_s / 1e9);
  // The preconditioner's cost by subtraction: an outer iteration is one
  // SpMV on L_G, one vector pass and one preconditioner apply.
  rep.value("solver.precond_self_ms", solver_iter_ms - (spmv_s + vec_s) * 1e3);

  const double llc = llc_bytes();
  const CsrAdjacency csr_h = build_csr(h);
  // Solve working set: both CSR snapshots plus the solver's vectors.
  auto csr_bytes = [](const CsrAdjacency& c) {
    return static_cast<double>(c.offsets.size() * sizeof(EdgeId) +
                               c.targets.size() * sizeof(NodeId) +
                               c.weights.size() * sizeof(double) +
                               c.degree.size() * sizeof(double));
  };
  const double ws = csr_bytes(csr) + csr_bytes(csr_h) + 8 * sizeof(double) * nd;
  rep.value("linalg.working_set_mib", ws / (1024.0 * 1024.0));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "roofline: graph working set %.2f MiB vs LLC %.1f MiB (%s); SpMV and "
                "vector-pass bytes and flops are computed, not counted",
                ws / (1024.0 * 1024.0), llc / (1024.0 * 1024.0),
                ws < llc ? "fits in the LLC" : "exceeds the LLC");
  rep.note(buf);

  // obs: one histogram observation.
  obs::Histogram hist(obs::Histogram::default_latency_bounds());
  constexpr int kObs = 1 << 20;
  const auto t0 = Clock::now();
  for (int i = 0; i < kObs; ++i) hist.observe(1e-6 * static_cast<double>(i & 1023));
  rep.value("obs.observe_ns", seconds_since(t0) / kObs * 1e9);
}

void measure_stream_bandwidth(const Context& ctx) {
  const double llc = llc_bytes();
  double triad_mib = 0.0;
  ctx.report->value("linalg.stream_bw_gbps", stream_triad_gbps(llc, &triad_mib));
  ctx.report->value("linalg.stream_footprint_mib", triad_mib);
  ctx.report->value("linalg.llc_mib", llc / (1024.0 * 1024.0));
}

}  // namespace perfbench
