// paper_stream: the Table II protocol in process, single-threaded.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/edge_stream.hpp"
#include "core/ingrass.hpp"
#include "graph/generators.hpp"
#include "graph/mtx_io.hpp"
#include "graph/stream_io.hpp"
#include "phases.hpp"
#include "sparsify/density.hpp"
#include "sparsify/grass.hpp"
#include "workload_util.hpp"

namespace perfbench {

using namespace ingrass;

namespace {

// The Table II stream seed: the set of streamed edges is the paper
// protocol's; the benchmark seed decides their arrival order and batching.
constexpr std::uint64_t kStreamSeed = 2024;
constexpr double kBudget = 100.0;  // the serving default kappa budget

struct Inputs {
  std::string mtx;
  std::string stream;
};

/// Generate the phase's inputs as files: the G3_circuit analog and the
/// 10% -> 34% insertion stream (0.24 edges per node, 95% local) in batches
/// of about 100 edges, shuffled by the benchmark seed.
Inputs generate(const Context& ctx, double scale, const std::string& tag) {
  Rng graph_rng(kGraphSeed);
  const Graph g = make_paper_testcase("G3_circuit", scale, graph_rng);
  EdgeStreamOptions so;
  so.total_per_node = 0.24;
  so.iterations = std::max(1, static_cast<int>(std::lround(0.24 * g.num_nodes() / 100.0)));
  so.seed = kStreamSeed;
  auto batches = make_edge_stream(g, so);
  std::vector<Edge> all;
  for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
  Rng order(ctx.seed);
  shuffle(all, order);
  std::size_t k = 0;
  for (auto& b : batches) {
    for (Edge& e : b) e = all[k++];
  }
  Inputs in{ctx.work_dir + "/" + tag + ".mtx", ctx.work_dir + "/" + tag + ".stream"};
  write_mtx_file(in.mtx, g);
  save_edge_stream(in.stream, batches);
  return in;
}

struct StreamRun {
  double setup_s = 0.0;           // GRASS H(0) + Ingrass setup
  double update_us_per_edge = 0.0;
  Ingrass::UpdateStats totals;
  std::uint64_t batches = 0;
  std::uint64_t bad_batches = 0;  // UpdateStats not accounting for the batch
};

/// One repetition on a fresh engine. With `traced`, spans wrap each call
/// into sparsify and core.
StreamRun stream_once(const Context& ctx, const Graph& g,
                      const std::vector<std::vector<Edge>>& batches, bool traced,
                      std::uint64_t rep, Graph* final_h) {
  Tracer off(false);
  Tracer& tr = traced ? *ctx.tracer : off;
  StreamRun r;
  GrassOptions gopts;
  gopts.target_offtree_density = 0.10;
  Ingrass::Options iopts;
  iopts.target_condition = kBudget;
  const auto t0 = Clock::now();
  Graph h0;
  {
    ScopedSpan s(tr, "sparsify.grass", rep);
    h0 = grass_sparsify(g, gopts).sparsifier;
  }
  std::unique_ptr<Ingrass> ing;
  {
    ScopedSpan s(tr, "core.setup", rep);
    ing = std::make_unique<Ingrass>(std::move(h0), iopts);
  }
  r.setup_s = seconds_since(t0);
  std::size_t edges = 0;
  double update_s = 0.0;
  {
    ScopedSpan stream(tr, "core.stream", rep);
    for (const auto& b : batches) {
      const auto tb = Clock::now();
      Ingrass::UpdateStats st;
      {
        ScopedSpan s(tr, "core.insert_edges", rep, stream.id());
        st = ing->insert_edges(b);
      }
      update_s += seconds_since(tb);
      edges += b.size();
      ++r.batches;
      if (st.total() != static_cast<EdgeId>(b.size())) ++r.bad_batches;
      r.totals.inserted += st.inserted;
      r.totals.merged += st.merged;
      r.totals.redistributed += st.redistributed;
      r.totals.reinforced += st.reinforced;
    }
  }
  r.update_us_per_edge = update_s / static_cast<double>(edges) * 1e6;
  if (final_h != nullptr) *final_h = ing->sparsifier();
  if (traced && rep == 0) {
    // Ranking pass and resistance queries on the final engine, outside the
    // timed stream.
    double score_s = 0.0;
    for (const auto& b : batches) {
      const auto ts = Clock::now();
      ScopedSpan s(tr, "core.score_batch", rep);
      (void)ing->score_batch(b);
      score_s += seconds_since(ts);
    }
    ctx.report->value("core.score_us_per_edge", score_s / static_cast<double>(edges) * 1e6);
    Rng q(ctx.seed ^ 0x5eedULL);
    const NodeId n = g.num_nodes();
    constexpr int kQueries = 20000;
    std::vector<std::pair<NodeId, NodeId>> pairs(kQueries);
    for (auto& p : pairs) {
      p = {static_cast<NodeId>(q.uniform_index(static_cast<std::uint64_t>(n))),
           static_cast<NodeId>(q.uniform_index(static_cast<std::uint64_t>(n)))};
    }
    double sink = 0.0;
    const auto tq = Clock::now();
    {
      ScopedSpan s(tr, "core.estimate_resistance", rep);
      for (const auto& [u, v] : pairs) sink += ing->estimate_resistance(u, v);
    }
    ctx.report->value("core.resistance_query_ns", seconds_since(tq) / kQueries * 1e9);
    if (!(sink >= 0.0)) ctx.report->check(false, "negative resistance estimate");
  }
  return r;
}

const char* ladder_name(double scale) {
  if (scale == 0.25) return "core.update_us_per_edge.n6k";
  if (scale == 1.0) return "core.update_us_per_edge.n24k";
  return "core.update_us_per_edge.n96k";
}

}  // namespace

ConditionNumberOptions bench_cond_options() {
  ConditionNumberOptions cond;
  cond.power_iters = 22;
  cond.rel_change_tol = 5e-3;
  cond.cg_tol = 3e-6;
  return cond;
}

void run_paper(const Context& ctx, const PhaseSize& size) {
  Report& rep = *ctx.report;
  const Inputs in = generate(ctx, size.scale, "paper");

  const auto tr0 = Clock::now();
  Graph g;
  {
    ScopedSpan s(*ctx.tracer, "graph.read_mtx", 0);
    g = read_mtx_file(in.mtx);
  }
  if (size.main) rep.value("graph.mtx_read_s", seconds_since(tr0));
  const auto batches = load_edge_stream(in.stream, g.num_nodes());
  std::uint64_t edges = 0;
  for (const auto& b : batches) edges += b.size();

  // Repeat the stream on fresh engines for the whole window, at least 3
  // times. Engines doing identical work differ by up to 40% in update time,
  // so the median needs many of them.
  std::vector<double> setup_s, update_us, traced_us, untraced_us;
  Graph final_h;
  StreamRun first;
  std::uint64_t attempted = 0, failed = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0;; ++r) {
    const bool more = r < 3 || seconds_since(t0) < size.seconds;
    if (!more || r >= 60) break;
    // Traced runs trace every other repetition; the untraced ones price the
    // tracing overhead.
    const bool traced = ctx.trace && r % 2 == 0;
    StreamRun run = stream_once(ctx, g, batches, traced, r, r == 0 ? &final_h : nullptr);
    attempted += run.batches;
    failed += run.bad_batches;
    setup_s.push_back(run.setup_s);
    update_us.push_back(run.update_us_per_edge);
    (traced ? traced_us : untraced_us).push_back(run.update_us_per_edge);
    if (r == 0) {
      first = run;
    } else {
      rep.check(run.totals.inserted == first.totals.inserted &&
                    run.totals.merged == first.totals.merged &&
                    run.totals.redistributed == first.totals.redistributed &&
                    run.totals.reinforced == first.totals.reinforced,
                "paper_stream: filter outcomes differ between repetitions of one stream");
    }
  }
  // A batch whose UpdateStats do not account for every edge is a failure.
  rep.ops(attempted, failed);
  if (size.main) rep.value("peak_rss_mb", self_peak_rss_mib());
  rep.samples("setup_s", setup_s);
  rep.samples("update_us_per_edge", update_us);

  // Quality after the stream: kappa against the final G, and density.
  Graph g_final = g;
  for (const auto& b : batches) {
    for (const Edge& e : b) g_final.add_or_merge_edge(e.u, e.v, e.w);
  }
  const auto tk = Clock::now();
  double kappa = 0.0;
  {
    ScopedSpan s(*ctx.tracer, "spectral.kappa", 0);
    kappa = condition_number(g_final, final_h, bench_cond_options());
  }
  rep.value("spectral.kappa_estimate_s", seconds_since(tk));
  const double density = offtree_density(final_h);
  rep.check(std::isfinite(kappa) && kappa >= 1.0, "paper_stream: kappa estimate invalid");
  rep.value("kappa_final", kappa);
  rep.value("density_final", density);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "paper phase n=%d edges=%llu: kappa_final %.4f against budget %.0f%s, "
                "density_final %.6f",
                static_cast<int>(g.num_nodes()), static_cast<unsigned long long>(edges), kappa,
                kBudget, kappa > kBudget ? " (over budget: known behaviour, reported)" : "",
                density);
  rep.note(buf);

  const double e = static_cast<double>(edges);
  rep.value("core.inserted_frac", static_cast<double>(first.totals.inserted) / e);
  rep.value("core.merged_frac", static_cast<double>(first.totals.merged) / e);
  rep.value("core.redistributed_frac", static_cast<double>(first.totals.redistributed) / e);
  rep.value("core.reinforced_frac", static_cast<double>(first.totals.reinforced) / e);

  if (!ctx.trace) return;
  if (size.main) {
    rep.value("sparsify.grass_s", median(ctx.tracer->durations("sparsify.grass")));
    rep.value("core.setup_s", median(ctx.tracer->durations("core.setup")));
  }
  if (!traced_us.empty() && !untraced_us.empty()) {
    const double u = median(untraced_us);
    rep.value("trace.overhead_pct", (median(traced_us) - u) / u * 100.0);
  }
  // Size ladder for the O(log N) claim: the same protocol at 6k, 24k and
  // 96k nodes, two fresh-engine repetitions each.
  for (const double scale : {0.25, 1.0, 4.0}) {
    if (scale == size.scale) {
      rep.value(ladder_name(scale), median(update_us));
      continue;
    }
    const Inputs li = generate(ctx, scale, "ladder");
    const Graph lg = read_mtx_file(li.mtx);
    const auto lb = load_edge_stream(li.stream, lg.num_nodes());
    std::vector<double> us;
    for (int r = 0; r < 2; ++r) {
      const StreamRun run = stream_once(ctx, lg, lb, false, 0, nullptr);
      rep.ops(run.batches, run.bad_batches);
      us.push_back(run.update_us_per_edge);
    }
    rep.value(ladder_name(scale), median(us));
  }
}

}  // namespace perfbench
