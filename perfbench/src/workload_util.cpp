#include "workload_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace perfbench {

using namespace ingrass;
namespace req = serve::req;
namespace resp = serve::resp;

std::pair<NodeId, NodeId> random_pair(Rng& rng, NodeId n) {
  const auto u = static_cast<NodeId>(rng.uniform_index(static_cast<std::uint64_t>(n)));
  auto v = static_cast<NodeId>(rng.uniform_index(static_cast<std::uint64_t>(n - 1)));
  if (v >= u) ++v;
  return {u, v};
}

void check_solves(const Context& ctx, const Graph& base, const std::vector<SolveRecord>& records,
                  const std::string& label) {
  Report& rep = *ctx.report;
  rep.check(!records.empty(), label + ": no solve to check");
  if (records.empty()) return;
  // Repeats of one pair on the unchanging base graph must agree (warm and
  // cold starts alike).
  std::map<std::pair<NodeId, NodeId>, double> first;
  for (const SolveRecord& r : records) {
    if (r.graph) continue;
    const auto [it, fresh] = first.emplace(std::make_pair(r.u, r.v), r.resistance);
    if (!fresh) {
      rep.check(std::abs(r.resistance - it->second) <= 1e-6 * it->second,
                label + ": repeated solve disagrees with the first answer");
    }
  }
  // A seeded sample against the independent reference.
  Rng rng(ctx.seed ^ 0xC4EC4ULL);
  constexpr std::size_t kSample = 4;
  for (std::size_t k = 0; k < std::min(kSample, records.size()); ++k) {
    const SolveRecord& r = records[rng.uniform_index(records.size())];
    const double ref = reference_resistance(r.graph ? *r.graph : base, r.u, r.v);
    const double rel = std::abs(r.resistance - ref) / ref;
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s: served resistance %.12g vs reference %.12g (rel %.2e)",
                  label.c_str(), r.resistance, ref, rel);
    rep.check(rel <= 1e-6, buf);
  }
}

StatValue stat_point(const serve::Response& stats, const std::string& prefix,
                     const std::string& label) {
  const auto* s = std::get_if<resp::StatsOut>(&stats);
  if (s == nullptr) throw std::runtime_error("stats failed: " + describe(stats));
  for (const resp::StatPoint& p : s->points) {
    if (p.name.rfind(prefix, 0) == 0 && p.name.find(label) != std::string::npos) {
      return StatValue{p.value, p.sum, static_cast<double>(p.count)};
    }
  }
  return {};
}

std::pair<double, double> warm_counts(serve::Engine& engine) {
  const serve::Response stats = engine.handle(req::Stats{});
  return {stat_point(stats, "ingrass_warmstart_total", "hit").value,
          stat_point(stats, "ingrass_warmstart_total", "miss").value};
}

void measure_codec(const Context& ctx, const std::vector<serve::Request>& requests,
                   const std::vector<serve::Response>& responses) {
  serve::BinaryCodec codec;
  std::vector<std::string> frames;
  for (const serve::Request& r : requests) {
    std::ostringstream o;
    codec.write_request(o, r);
    frames.push_back(o.str());
  }
  // Repeat the list so each figure averages a few thousand messages.
  constexpr int kRounds = 200;
  std::size_t decoded = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kRounds; ++k) {
    for (const std::string& f : frames) {
      std::istringstream in(f);
      decoded += codec.read_request(in).has_value();
    }
  }
  const double dec = seconds_since(t0);
  std::size_t bytes = 0;
  const auto t1 = Clock::now();
  for (int k = 0; k < kRounds; ++k) {
    for (const serve::Response& r : responses) {
      std::ostringstream o;
      codec.write_response(o, r);
      bytes += o.str().size();
    }
  }
  const double enc = seconds_since(t1);
  ctx.report->check(decoded == frames.size() * kRounds && bytes > 0, "codec round trip");
  ctx.report->value("codec.decode_ns", dec / static_cast<double>(frames.size() * kRounds) * 1e9);
  ctx.report->value("codec.encode_ns",
                    enc / static_cast<double>(responses.size() * kRounds) * 1e9);
}

}  // namespace perfbench
