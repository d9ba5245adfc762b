// tcp_solve: s-t solves against one plain tenant of ingrass_serve --listen.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "graph/generators.hpp"
#include "graph/mtx_io.hpp"
#include "phases.hpp"
#include "serve/session.hpp"
#include "workload_util.hpp"

namespace perfbench {

using namespace ingrass;
namespace req = serve::req;
namespace resp = serve::resp;

namespace {

constexpr int kConnections = 3;
constexpr int kSetupReps = 7;
const char* const kTenant = "solve";

/// Seeded solve pairs for one request stream: uniform distinct endpoints,
/// and one request in 4 repeating the previous pair (the warm-start case).
class PairStream {
 public:
  PairStream(std::uint64_t seed, std::uint64_t stream, NodeId n)
      : rng_(seed * 7919 + stream), n_(n) {}
  std::pair<NodeId, NodeId> next() {
    if (prev_.first < 0 || rng_.uniform_index(4) != 0) prev_ = random_pair(rng_, n_);
    return prev_;
  }

 private:
  Rng rng_;
  NodeId n_;
  std::pair<NodeId, NodeId> prev_{-1, -1};
};

struct Outcome {
  std::vector<double> latency_ms;  // successful solves only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<SolveRecord> records;
  std::vector<double> traced_ms, untraced_ms;
};

}  // namespace

void run_solve(const Context& ctx, const PhaseSize& size) {
  Report& rep = *ctx.report;
  Rng graph_rng(kGraphSeed);
  const Graph g0 = make_paper_testcase("G2_circuit", size.scale, graph_rng);
  const std::string mtx = std::filesystem::absolute(ctx.work_dir + "/solve.mtx").string();
  write_mtx_file(mtx, g0);
  const NodeId n = g0.num_nodes();
  const double tol = session_tolerance();
  if (size.main) {
    const auto tr0 = Clock::now();
    (void)read_mtx_file(mtx);
    rep.value("graph.mtx_read_s", seconds_since(tr0));
  }

  // Set-up: time-to-traffic on a fresh server.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int r = 0; r < kSetupReps; ++r) {
    server = std::make_unique<ServerProcess>(ctx.serve_binary, std::vector<std::string>{},
                                             ctx.work_dir, "solve-server");
    {
      WireClient c(server->port());
      const auto t0 = Clock::now();
      const serve::Response opened = c.call(req::Open{kTenant, mtx, {}});
      setup_s.push_back(seconds_since(t0));
      const bool ok = std::holds_alternative<resp::Opened>(opened);
      rep.ops(1, ok ? 0 : 1);
      if (!ok) throw std::runtime_error("tcp_solve open failed: " + describe(opened));
    }
    if (r + 1 < kSetupReps) server->stop();
  }
  rep.samples("setup_s", setup_s);

  // Closed loop: 3 connections, each waits for its answer before sending on,
  // for the window and at least 40 solves each (a p90 needs 100).
  std::vector<Outcome> out(kConnections);
  const auto t0 = Clock::now();
  run_threads(kConnections, [&](int c) {
    Outcome& o = out[static_cast<std::size_t>(c)];
    WireClient client(server->port());
    PairStream stream(ctx.seed, static_cast<std::uint64_t>(c), n);
    for (std::size_t i = 0;; ++i) {
      if (seconds_since(t0) >= size.seconds && i >= 40) break;
      const auto p = stream.next();
      const bool traced = ctx.trace && i % 2 == 0;
      Tracer off(false);
      Tracer& tr = traced ? *ctx.tracer : off;
      const auto ts = Clock::now();
      serve::Response r;
      {
        ScopedSpan span(tr, "load.solve", i);
        client.send({req::Solve{kTenant, p.first, p.second}}, &tr, i, span.id());
        r = client.recv(&tr, i, span.id());
      }
      const double ms = seconds_since(ts) * 1e3;
      ++o.attempted;
      const auto* s = std::get_if<resp::Solved>(&r);
      if (s == nullptr || !(s->residual <= tol) || !(s->resistance > 0.0)) {
        ++o.failed;
        continue;
      }
      o.latency_ms.push_back(ms);
      (traced ? o.traced_ms : o.untraced_ms).push_back(ms);
      o.records.push_back(SolveRecord{p.first, p.second, s->resistance, nullptr});
    }
  });
  const double wall = seconds_since(t0);

  std::vector<double> lat, traced_ms, untraced_ms;
  std::vector<SolveRecord> records;
  std::uint64_t attempted = 0, failed = 0;
  for (Outcome& o : out) {
    attempted += o.attempted;
    failed += o.failed;
    lat.insert(lat.end(), o.latency_ms.begin(), o.latency_ms.end());
    traced_ms.insert(traced_ms.end(), o.traced_ms.begin(), o.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), o.untraced_ms.begin(), o.untraced_ms.end());
    records.insert(records.end(), o.records.begin(), o.records.end());
  }
  rep.ops(attempted, failed);
  rep.samples("solve_ms", lat, failed);
  rep.value("solves_per_s", static_cast<double>(lat.size()) / wall);
  check_solves(ctx, g0, records, "tcp_solve");
  if (ctx.trace && !traced_ms.empty() && !untraced_ms.empty() && size.main) {
    const double u = median(untraced_ms);
    rep.value("trace.overhead_pct", (median(traced_ms) - u) / u * 100.0);
  }

  if (ctx.trace) {
    // Replay one seeded request list at each entry point in turn.
    PairStream replay(ctx.seed, 99, n);
    std::vector<std::pair<NodeId, NodeId>> pairs(size.main ? 16 : 40);
    for (auto& p : pairs) p = replay.next();
    Tracer& tr = *ctx.tracer;
    {
      WireClient c(server->port());
      std::uint64_t id = 0;
      for (const auto& [u, v] : pairs) {
        ScopedSpan span(tr, "tcp.solve", ++id);
        c.send({req::Solve{kTenant, u, v}}, &tr, id, span.id());
        (void)c.recv(&tr, id, span.id());
      }
    }
    serve::Engine engine;
    std::vector<serve::Request> requests;
    std::vector<serve::Response> responses;
    if (!std::holds_alternative<resp::Opened>(engine.handle(req::Open{kTenant, mtx, {}}))) {
      throw std::runtime_error("in-process open failed");
    }
    std::uint64_t id = 0;
    for (const auto& [u, v] : pairs) {
      requests.push_back(req::Solve{kTenant, u, v});
      ScopedSpan span(tr, "engine.solve", ++id);
      responses.push_back(engine.handle(requests.back()));
    }
    const auto warm0 = warm_counts(engine);
    SparsifierSession session(read_mtx_file(mtx), serve::SessionSpec{}.session_options());
    id = 0;
    for (const auto& [u, v] : pairs) {
      Vec b(static_cast<std::size_t>(n), 0.0), x(static_cast<std::size_t>(n), 0.0);
      b[static_cast<std::size_t>(u)] = 1.0;
      b[static_cast<std::size_t>(v)] = -1.0;
      ScopedSpan span(tr, "session.solve", ++id);
      (void)session.solve(b, x);
    }
    const auto warm1 = warm_counts(engine);
    const double hits = warm1.first - warm0.first;
    const double total = hits + (warm1.second - warm0.second);
    rep.value("session.warm_hit_frac", total > 0 ? hits / total : 0.0);
    const Graph g = session.graph();
    const Graph h = session.sparsifier();
    const double iter_ms = measure_solver(ctx, g, h, g, h, pairs);
    measure_kernels(ctx, g, h, iter_ms);
    measure_codec(ctx, requests, responses);
    rep.value("transport.rtt_us.solve", median(tr.durations("tcp.solve")) * 1e6);
    rep.value("engine.handle_us.solve", median(tr.durations("engine.solve")) * 1e6);
    rep.value("session.solve_ms", median(tr.durations("session.solve")) * 1e3);
    rep.value("transport.self_us.solve", tr.paired_self("tcp.solve", "engine.solve") * 1e6);
    rep.value("engine.self_us.solve", tr.paired_self("engine.solve", "session.solve") * 1e6);
    rep.value("session.self_ms.solve", tr.paired_self("session.solve", "solver.solve") * 1e3);
  }

  const double rss = server->stop();
  rep.value("peak_rss_mb", rss);
  char buf[160];
  std::snprintf(buf, sizeof buf, "solve phase n=%d: %zu solves in %.2f s, %llu failed",
                static_cast<int>(n), lat.size(), wall, static_cast<unsigned long long>(failed));
  rep.note(buf);
}

}  // namespace perfbench
