// tcp_churn: pipelined insert/remove/apply batches on three tenants of
// ingrass_serve --listen, one per backend (plain, sharded, distributed).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

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

constexpr int kInserts = 16;
constexpr int kRemovals = 2;
constexpr int kSolveEvery = 16;  // one solve per this many batches
constexpr int kBackends = 3;
constexpr int kSetupReps = 7;
constexpr std::array<const char*, kBackends> kBackendName = {"plain", "sharded", "dist"};

using Pair = std::pair<NodeId, NodeId>;

/// Seeded churn for one connection. Inserts are 95% local (2-hop) and 5%
/// uniform pairs that are not edges of G; removals take back edges this
/// stream inserted at least 2 batches earlier, so the base graph (and its
/// connectivity) is never touched. The stream mirrors the tenant's G.
class ChurnStream {
 public:
  ChurnStream(const Graph& base, std::uint64_t seed) : base_(base), rng_(seed) {}

  UpdateBatch next() {
    UpdateBatch b;
    for (int k = 0; k < kRemovals && batch_ >= 2; ++k) {
      for (int tries = 0; tries < 64 && !live_.empty(); ++tries) {
        const std::size_t i = rng_.uniform_index(live_.size());
        if (live_[i].batch + 2 > batch_) continue;
        b.removals.push_back(live_[i].p);
        live_set_.erase(live_[i].p);
        live_[i] = live_.back();
        live_.pop_back();
        break;
      }
    }
    for (int k = 0; k < kInserts; ++k) {
      const Pair p = pick_insert();
      const double w = base_.edge(static_cast<EdgeId>(
          rng_.uniform_index(static_cast<std::uint64_t>(base_.num_edges())))).w;
      b.inserts.push_back(Edge{p.first, p.second, w});
      live_.push_back(Live{p, w, batch_});
      live_set_.insert(p);
    }
    ++batch_;
    return b;
  }

  Pair solve_pair() { return random_pair(rng_, base_.num_nodes()); }

  /// G as the tenant holds it after every batch so far.
  [[nodiscard]] std::shared_ptr<const Graph> mirror() const {
    auto g = std::make_shared<Graph>(base_);
    for (const Live& l : live_) g->add_edge(l.p.first, l.p.second, l.w);
    return g;
  }

 private:
  struct Live {
    Pair p;
    double w = 0.0;
    std::uint64_t batch = 0;
  };

  [[nodiscard]] bool usable(NodeId u, NodeId v) const {
    if (u == v) return false;
    const Pair p = std::minmax(u, v);
    return live_set_.count(p) == 0 && !base_.has_edge(u, v);
  }

  Pair pick_insert() {
    const NodeId n = base_.num_nodes();
    for (;;) {
      const auto u = static_cast<NodeId>(rng_.uniform_index(static_cast<std::uint64_t>(n)));
      NodeId v = u;
      if (rng_.uniform() < 0.95) {
        for (int hop = 0; hop < 2; ++hop) {
          const auto nb = base_.neighbors(v);
          v = nb[rng_.uniform_index(nb.size())].to;
        }
      } else {
        v = static_cast<NodeId>(rng_.uniform_index(static_cast<std::uint64_t>(n)));
      }
      if (usable(u, v)) return std::minmax(u, v);
    }
  }

  const Graph& base_;
  Rng rng_;
  std::uint64_t batch_ = 0;
  std::vector<Live> live_;
  std::set<Pair> live_set_;
};

/// Request ids of replayed commands, equal at every entry point: command k
/// of batch i is i*64+k, its apply i*64+63, the solve after it i*64+62.
std::uint64_t command_id(int batch, std::size_t k, std::size_t size) {
  const auto base = static_cast<std::uint64_t>(batch) * 64;
  return k + 1 == size ? base + 63 : base + k;
}
std::uint64_t solve_id(int batch) { return static_cast<std::uint64_t>(batch) * 64 + 62; }

std::vector<serve::Request> batch_requests(const std::string& tenant, const UpdateBatch& b) {
  std::vector<serve::Request> out;
  for (const auto& [u, v] : b.removals) out.push_back(req::Remove{tenant, u, v});
  for (const Edge& e : b.inserts) out.push_back(req::Insert{tenant, e.u, e.v, e.w});
  out.push_back(req::Apply{tenant});
  return out;
}

/// A coordinator server plus two shard servers.
struct Fleet {
  Fleet(const Context& ctx) {
    for (int k = 0; k < 2; ++k) {
      shards[static_cast<std::size_t>(k)] = std::make_unique<ServerProcess>(
          ctx.serve_binary, std::vector<std::string>{"--shard-server"}, ctx.work_dir,
          "churn-shard" + std::to_string(k));
    }
    main = std::make_unique<ServerProcess>(ctx.serve_binary, std::vector<std::string>{},
                                           ctx.work_dir, "churn-server");
  }
  [[nodiscard]] std::vector<std::string> endpoints() const {
    return {"127.0.0.1:" + std::to_string(shards[0]->port()),
            "127.0.0.1:" + std::to_string(shards[1]->port())};
  }
  /// Stop the coordinator first (it holds the shard connections); summed
  /// peak RSS of all three processes.
  double stop() { return main->stop() + shards[0]->stop() + shards[1]->stop(); }

  std::array<std::unique_ptr<ServerProcess>, 2> shards;
  std::unique_ptr<ServerProcess> main;
};

serve::Request open_request(int backend, const std::string& name, const std::string& mtx,
                            const Fleet& fleet, const std::string& dir) {
  if (backend == 0) return req::Open{name, mtx, {}};
  if (backend == 1) return req::OpenSharded{name, mtx, 2, PartitionStrategy::kGreedy, {}};
  std::filesystem::create_directories(dir);
  return req::OpenDist{name, mtx, fleet.endpoints(), PartitionStrategy::kGreedy, {}, dir};
}

const char* verb_of(const serve::Request& r) {
  if (std::holds_alternative<req::Insert>(r)) return "insert";
  if (std::holds_alternative<req::Remove>(r)) return "remove";
  return "apply";
}

struct Outcome {
  std::vector<double> batch_ms, solve_ms, traced_ms, untraced_ms;
  std::uint64_t batches_failed = 0, solves_failed = 0, attempted = 0;
  std::uint64_t records = 0, unaccounted = 0, inserts = 0, busy = 0, commands = 0, rebuilds = 0;
  std::vector<SolveRecord> checked;
};

/// Why a batch's responses fail the checks, or "" when they pass.
std::string check_batch(int backend, const UpdateBatch& b,
                        const std::vector<serve::Response>& rs, Outcome& o) {
  for (std::size_t i = 0; i + 1 < rs.size(); ++i) {
    if (std::holds_alternative<resp::Busy>(rs[i])) ++o.busy;
    if (!std::holds_alternative<resp::Staged>(rs[i])) return "stage: " + describe(rs[i]);
  }
  const auto* a = std::get_if<resp::Applied>(&rs.back());
  if (a == nullptr) return "apply: " + describe(rs.back());
  const std::uint64_t total = a->inserted + a->merged + a->redistributed + a->reinforced;
  if (a->removed != static_cast<std::int64_t>(b.removals.size())) return "removals not found";
  // Plain tenants account for every insert. Sharded and distributed
  // coordinators keep cut edges in their boundary graph and report only
  // the shard-side outcomes: reported, counted below, never more.
  if (backend == 0 ? total != b.inserts.size() : total > b.inserts.size()) {
    return "Applied does not account for the staged inserts";
  }
  o.unaccounted += b.inserts.size() - total;
  o.rebuilds += a->rebuild ? 1 : 0;
  return "";
}

}  // namespace

void run_churn(const Context& ctx, const PhaseSize& size) {
  Report& rep = *ctx.report;
  Rng graph_rng(kGraphSeed);
  const Graph base = make_paper_testcase("fe_4elt2", size.scale, graph_rng);
  const std::string mtx = std::filesystem::absolute(ctx.work_dir + "/churn.mtx").string();
  write_mtx_file(mtx, base);
  const std::string dir = std::filesystem::absolute(ctx.work_dir).string();
  const double tol = session_tolerance();
  if (size.main) {
    const auto tr0 = Clock::now();
    (void)read_mtx_file(mtx);
    rep.value("graph.mtx_read_s", seconds_since(tr0));
  }

  // Set-up: first open sent to last open answered, on a fresh fleet.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int r = 0; r < kSetupReps; ++r) {
    fleet = std::make_unique<Fleet>(ctx);
    {
      std::vector<std::unique_ptr<WireClient>> clients;
      for (int b = 0; b < kBackends; ++b) {
        clients.push_back(std::make_unique<WireClient>(fleet->main->port()));
      }
      const auto t0 = Clock::now();
      for (int b = 0; b < kBackends; ++b) {
        clients[static_cast<std::size_t>(b)]->send(
            {open_request(b, kBackendName[static_cast<std::size_t>(b)], mtx, *fleet,
                          dir + "/dist-" + std::to_string(r))});
      }
      for (int b = 0; b < kBackends; ++b) {
        const serve::Response opened = clients[static_cast<std::size_t>(b)]->recv();
        const bool ok = std::holds_alternative<resp::Opened>(opened);
        rep.ops(1, ok ? 0 : 1);
        if (!ok) throw std::runtime_error("tcp_churn open failed: " + describe(opened));
      }
      setup_s.push_back(seconds_since(t0));
    }
    if (r + 1 < kSetupReps) fleet->stop();
  }
  rep.samples("setup_s", setup_s);

  // Closed loop, one connection per tenant. A p99 needs 1000 batches, so a
  // tenant keeps going past the window until it has 1100.
  std::vector<Outcome> out(kBackends);
  const auto t0 = Clock::now();
  run_threads(kBackends, [&](int b) {
    Outcome& o = out[static_cast<std::size_t>(b)];
    const std::string tenant = kBackendName[static_cast<std::size_t>(b)];
    WireClient client(fleet->main->port());
    ChurnStream stream(base, ctx.seed * 31 + static_cast<std::uint64_t>(b));
    for (std::uint64_t i = 0;; ++i) {
      if (seconds_since(t0) >= size.seconds && i >= 1100) break;
      const UpdateBatch batch = stream.next();
      const auto requests = batch_requests(tenant, batch);
      const bool traced = ctx.trace && i % 2 == 0;
      Tracer off(false);
      Tracer& tr = traced ? *ctx.tracer : off;
      std::vector<serve::Response> rs;
      const auto ts = Clock::now();
      {
        ScopedSpan span(tr, "load.batch." + tenant, i);
        client.send(requests, &tr, i, span.id());
        for (std::size_t k = 0; k < requests.size(); ++k) {
          rs.push_back(client.recv(&tr, i, span.id()));
        }
      }
      const double ms = seconds_since(ts) * 1e3;
      ++o.attempted;
      o.commands += requests.size();
      o.inserts += batch.inserts.size();
      const std::string why = check_batch(b, batch, rs, o);
      if (!why.empty()) {
        ++o.batches_failed;
        if (o.batches_failed == 1) rep.note("tcp_churn " + tenant + ": " + why);
        continue;
      }
      o.batch_ms.push_back(ms);
      (traced ? o.traced_ms : o.untraced_ms).push_back(ms);
      o.records += requests.size() - 1;
      if ((i + 1) % kSolveEvery != 0) continue;
      // Solves follow mutations, so the server refreshes its solver.
      const Pair p = stream.solve_pair();
      const bool keep = o.checked.size() < 2;
      auto snapshot = keep ? stream.mirror() : nullptr;
      const auto tsol = Clock::now();
      const serve::Response r = client.call(req::Solve{tenant, p.first, p.second});
      const double sms = seconds_since(tsol) * 1e3;
      ++o.attempted;
      ++o.commands;
      const auto* s = std::get_if<resp::Solved>(&r);
      if (s == nullptr || !(s->residual <= tol) || !(s->resistance > 0.0)) {
        ++o.solves_failed;
        if (o.solves_failed == 1) rep.note("tcp_churn " + tenant + " solve: " + describe(r));
        continue;
      }
      o.solve_ms.push_back(sms);
      if (keep) o.checked.push_back(SolveRecord{p.first, p.second, s->resistance, snapshot});
    }
  });
  const double wall = seconds_since(t0);

  // Tenants run at different speeds, so they complete different numbers of
  // solves; weigh them equally by keeping each tenant's first n solves,
  // n = the fewest any tenant completed.
  std::size_t per_tenant = out[0].solve_ms.size();
  for (const Outcome& o : out) per_tenant = std::min(per_tenant, o.solve_ms.size());
  std::vector<double> solve_ms;
  std::uint64_t solves_failed = 0, records = 0, busy = 0, commands = 0, solves = 0;
  std::vector<SolveRecord> checked;
  for (int b = 0; b < kBackends; ++b) {
    Outcome& o = out[static_cast<std::size_t>(b)];
    const std::string name = kBackendName[static_cast<std::size_t>(b)];
    rep.ops(o.attempted, o.batches_failed + o.solves_failed);
    rep.samples("batch_ms." + name, o.batch_ms, o.batches_failed);
    solve_ms.insert(solve_ms.end(), o.solve_ms.begin(),
                    o.solve_ms.begin() + static_cast<std::ptrdiff_t>(per_tenant));
    solves += o.solve_ms.size();
    solves_failed += o.solves_failed;
    records += o.records;
    busy += o.busy;
    commands += o.commands;
    checked.insert(checked.end(), o.checked.begin(), o.checked.end());
    if (b > 0) {
      rep.value(name + ".unaccounted_frac",
                static_cast<double>(o.unaccounted) / static_cast<double>(std::max<std::uint64_t>(1, o.inserts)));
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "churn %s: %zu batches (%llu tripped a rebuild), %zu solves in %.2f s",
                  name.c_str(), o.batch_ms.size(), static_cast<unsigned long long>(o.rebuilds),
                  o.solve_ms.size(), wall);
    rep.note(buf);
  }
  rep.samples("solve_ms", solve_ms, solves_failed);
  rep.value("records_per_s", static_cast<double>(records) / wall);
  rep.value("solves_per_s", static_cast<double>(solves) / wall);
  rep.value("engine.busy_frac", static_cast<double>(busy) / static_cast<double>(std::max<std::uint64_t>(1, commands)));
  check_solves(ctx, base, checked, "tcp_churn");
  if (ctx.trace && size.main && !out[0].traced_ms.empty() && !out[0].untraced_ms.empty()) {
    const double u = median(out[0].untraced_ms);
    rep.value("trace.overhead_pct", (median(out[0].traced_ms) - u) / u * 100.0);
  }

  if (ctx.trace) {
    // Replay one seeded churn list at each entry point in turn, each on a
    // freshly opened tenant so the states match.
    constexpr int kReplay = 96;
    const std::uint64_t replay_seed = ctx.seed * 31 + 99;
    Tracer& tr = *ctx.tracer;

    // serve::Session (plain), then the solver on the state it reached.
    {
      serve::Engine probe;
      const StatValue rb0 = stat_point(probe.handle(req::Stats{}), "ingrass_rebuild_seconds", "async");
      SparsifierSession session(read_mtx_file(mtx), serve::SessionSpec{}.session_options());
      ChurnStream stream(base, replay_seed);
      std::vector<std::pair<NodeId, NodeId>> pairs;
      int rebuilds = 0;
      Graph g_a, h_a;
      for (int i = 0; i < kReplay; ++i) {
        const UpdateBatch batch = stream.next();
        if (i == kReplay - 1) {
          g_a = session.graph();
          h_a = session.sparsifier();
        }
        {
          ScopedSpan s(tr, "session.apply", command_id(i, 0, 1));
          rebuilds += session.apply(batch).rebuild_triggered ? 1 : 0;
        }
        if ((i + 1) % kSolveEvery != 0) continue;
        const Pair p = stream.solve_pair();
        pairs.push_back(p);
        Vec bvec(static_cast<std::size_t>(base.num_nodes()), 0.0);
        Vec x(bvec.size(), 0.0);
        bvec[static_cast<std::size_t>(p.first)] = 1.0;
        bvec[static_cast<std::size_t>(p.second)] = -1.0;
        ScopedSpan s(tr, "session.solve", solve_id(i));
        (void)session.solve(bvec, x);
      }
      session.wait_for_rebuild();
      const StatValue rb1 = stat_point(probe.handle(req::Stats{}), "ingrass_rebuild_seconds", "async");
      rep.value("session.rebuilds_per_batch", static_cast<double>(rebuilds) / kReplay);
      rep.value("session.rebuild_s",
                rb1.count > rb0.count ? (rb1.sum - rb0.sum) / (rb1.count - rb0.count) : 0.0);
      rep.value("session.staleness_final", session.staleness());
      const Graph g_b = session.graph();
      const Graph h_b = session.sparsifier();
      const double iter_ms = measure_solver(ctx, g_a, h_a, g_b, h_b, pairs);
      measure_kernels(ctx, g_b, h_b, iter_ms);
    }

    // In-process Engine::handle, every backend.
    {
      serve::Engine engine;
      std::vector<serve::Request> requests;
      std::vector<serve::Response> responses;
      for (int b = 0; b < kBackends; ++b) {
        const std::string name = kBackendName[static_cast<std::size_t>(b)];
        const std::string tenant = "ip_" + name;
        const serve::Response opened =
            engine.handle(open_request(b, tenant, mtx, *fleet, dir + "/ip-dist"));
        if (!std::holds_alternative<resp::Opened>(opened)) {
          throw std::runtime_error("in-process open failed: " + describe(opened));
        }
        ChurnStream stream(base, replay_seed);
        for (int i = 0; i < kReplay; ++i) {
          const auto batch = batch_requests(tenant, stream.next());
          for (std::size_t k = 0; k < batch.size(); ++k) {
            const serve::Request& r = batch[k];
            ScopedSpan s(tr, std::string("engine.") + verb_of(r) + "." + name,
                         command_id(i, k, batch.size()));
            serve::Response resp = engine.handle(r);
            if (b == 0) {
              requests.push_back(r);
              responses.push_back(std::move(resp));
            }
          }
          if ((i + 1) % kSolveEvery != 0) continue;
          const Pair p = stream.solve_pair();
          ScopedSpan s(tr, "engine.solve." + name, solve_id(i));
          rep.check(std::holds_alternative<resp::Solved>(
                        engine.handle(req::Solve{tenant, p.first, p.second})),
                    "in-process solve failed");
        }
      }
      measure_codec(ctx, requests, responses);
    }

    // Over TCP, one command at a time.
    {
      WireClient c(fleet->main->port());
      for (int b = 0; b < kBackends; ++b) {
        const std::string name = kBackendName[static_cast<std::size_t>(b)];
        const std::string tenant = "rp_" + name;
        if (!std::holds_alternative<resp::Opened>(
                c.call(open_request(b, tenant, mtx, *fleet, dir + "/rp-dist")))) {
          throw std::runtime_error("replay open failed");
        }
        ChurnStream stream(base, replay_seed);
        for (int i = 0; i < kReplay; ++i) {
          const auto batch = batch_requests(tenant, stream.next());
          for (std::size_t k = 0; k < batch.size(); ++k) {
            const std::uint64_t id = command_id(i, k, batch.size());
            ScopedSpan s(tr, std::string("tcp.") + verb_of(batch[k]) + "." + name, id);
            c.send({batch[k]}, &tr, id, s.id());
            (void)c.recv(&tr, id, s.id());
          }
          if ((i + 1) % kSolveEvery != 0) continue;
          const Pair p = stream.solve_pair();
          ScopedSpan s(tr, "tcp.solve." + name, solve_id(i));
          c.send({req::Solve{tenant, p.first, p.second}}, &tr, solve_id(i), s.id());
          (void)c.recv(&tr, solve_id(i), s.id());
        }
      }
      const serve::Response stats = c.call(req::Stats{});
      rep.value("dist.rpc_retries", stat_point(stats, "ingrass_rpc_retries_total").value);
      rep.value("dist.reconnects", stat_point(stats, "ingrass_rpc_reconnects_total").value);
    }

    auto med = [&](const std::string& span) { return median(tr.durations(span)); };
    rep.value("session.apply_ms", med("session.apply") * 1e3);
    rep.value("session.solve_ms", med("session.solve") * 1e3);
    // The solver entry point solves on the final state, so this one pairs
    // medians rather than requests.
    rep.value("session.self_ms.solve", (med("session.solve") - med("solver.solve")) * 1e3);
    rep.value("engine.handle_us.insert", med("engine.insert.plain") * 1e6);
    rep.value("engine.handle_us.apply", med("engine.apply.plain") * 1e6);
    rep.value("engine.handle_us.solve", med("engine.solve.plain") * 1e6);
    rep.value("engine.self_us.apply", tr.paired_self("engine.apply.plain", "session.apply") * 1e6);
    rep.value("engine.self_us.solve", tr.paired_self("engine.solve.plain", "session.solve") * 1e6);
    rep.value("sharded.apply_ms", med("engine.apply.sharded") * 1e3);
    rep.value("sharded.solve_ms", med("engine.solve.sharded") * 1e3);
    rep.value("dist.apply_ms", med("engine.apply.dist") * 1e3);
    rep.value("dist.solve_ms", med("engine.solve.dist") * 1e3);
    rep.value("transport.rtt_us.insert", med("tcp.insert.plain") * 1e6);
    rep.value("transport.rtt_us.solve", med("tcp.solve.plain") * 1e6);
    rep.value("transport.self_us.insert", tr.paired_self("tcp.insert.plain", "engine.insert.plain") * 1e6);
    rep.value("transport.self_us.solve", tr.paired_self("tcp.solve.plain", "engine.solve.plain") * 1e6);
  }

  rep.value("peak_rss_mb", fleet->stop());
}

}  // namespace perfbench
