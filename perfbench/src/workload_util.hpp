#pragma once

// Helpers shared by the serving phases: seeded pairs, served-solve checks
// against the reference, and reads of the obs registry through Engine.

#include <memory>
#include <utility>
#include <vector>

#include "phases.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// The graph generator seed of the repository's paper benches: the analog
/// graphs are fixed, the benchmark seed drives the traffic.
inline constexpr std::uint64_t kGraphSeed = 0xC0FFEE;

/// Two distinct uniform nodes.
[[nodiscard]] std::pair<ingrass::NodeId, ingrass::NodeId> random_pair(ingrass::Rng& rng,
                                                                      ingrass::NodeId n);

/// One served solve kept for checking. `graph` is the client's mirror of G
/// when the solve was sent; null means the phase's unchanging base graph.
struct SolveRecord {
  ingrass::NodeId u = 0;
  ingrass::NodeId v = 0;
  double resistance = 0.0;
  std::shared_ptr<const ingrass::Graph> graph;
};

/// Check a seeded sample of served resistances against reference_resistance
/// (1e-6 relative), and served repeats of one pair on the base graph
/// against each other.
void check_solves(const Context& ctx, const ingrass::Graph& base,
                  const std::vector<SolveRecord>& records, const std::string& label);

/// (hits, misses) of the warm-start cache in this process's obs registry.
[[nodiscard]] std::pair<double, double> warm_counts(ingrass::serve::Engine& engine);

/// Value (counter/gauge) or (sum, count) (histogram) of the first stats
/// point whose name starts with `prefix` and contains `label`.
struct StatValue {
  double value = 0.0;
  double sum = 0.0;
  double count = 0.0;
};
[[nodiscard]] StatValue stat_point(const ingrass::serve::Response& stats,
                                   const std::string& prefix, const std::string& label = "");

/// Server-direction codec costs on a replayed request list: request decode
/// and response encode, ns per message.
void measure_codec(const Context& ctx, const std::vector<ingrass::serve::Request>& requests,
                   const std::vector<ingrass::serve::Response>& responses);

}  // namespace perfbench
