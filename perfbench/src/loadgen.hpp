#pragma once

// Seeded inputs: every request list and arrival schedule the benchmark
// sends is a pure function of (--seed, workload constants). The generator
// is splitmix64 with hand-written transforms, so the same seed gives the
// same bytes with any standard library.

#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "graph/csr.hpp"

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint32_t below(std::uint32_t n);
  /// Exponentially distributed gap with the given rate.
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Independent generator stream `stream` of a run seeded with `seed`.
Rng stream_rng(std::uint64_t seed, std::uint64_t stream);

/// The three request classes of serve_mixed, one tenant each.
enum class RequestClass : std::uint8_t { kGnn, kPpr, kN2v };
inline constexpr RequestClass kClasses[] = {RequestClass::kGnn,
                                            RequestClass::kPpr,
                                            RequestClass::kN2v};

/// Shape of one class's requests.
struct ClassShape {
  const char* name;  ///< also the tenant name
  csaw::AlgorithmId algorithm;
  std::uint32_t depth_or_length;
  std::uint32_t neighbor_size;
  std::uint32_t instances;  ///< single-seed instances per request
  double share;             ///< share of the Poisson traffic
  bool streaming;           ///< sent through submit_streaming
};
const ClassShape& class_shape(RequestClass c);

/// serve_mixed load definition. The offered rate is fixed here, not
/// calibrated per run.
struct MixedLoad {
  double rate_per_s = 400.0;
  /// A burst of extra arrivals at this share of the phase.
  double burst_at = 0.5;
  std::uint32_t burst_requests = 48;
  double burst_window_s = 0.02;
  /// Philox stream range pinned per request (>= every class's instances).
  std::uint32_t rng_stride = 32;
};

/// One scheduled request of serve_mixed.
struct Arrival {
  double due_s = 0.0;  ///< offset from the phase start
  RequestClass cls = RequestClass::kGnn;
  std::uint32_t graph = 0;  ///< index into the workload's graphs
  std::uint32_t rng_base = 0;
  std::vector<csaw::VertexId> seeds;
};

/// The arrival schedule of one serve_mixed phase: Poisson arrivals of the
/// class mix plus one burst, sorted by due time. Each request's graph is
/// uniform over `graph_sizes`; seeds are uniform over its vertices.
std::vector<Arrival> mixed_schedule(std::uint64_t seed, double duration_s,
                                    const std::vector<csaw::VertexId>& graph_sizes);

/// Seed vertices of walk_corpus call `call` (fresh per call).
std::vector<csaw::VertexId> corpus_seeds(std::uint64_t seed, std::uint64_t call,
                                         std::uint32_t count,
                                         csaw::VertexId num_vertices);

/// Seed vertices of closed-loop client `client`'s request `k`.
std::vector<csaw::VertexId> client_seeds(std::uint64_t seed, std::uint32_t client,
                                         std::uint64_t k, std::uint32_t count,
                                         csaw::VertexId num_vertices);

/// Canonical bytes of a schedule (the determinism self-test compares them).
std::string serialize(const std::vector<Arrival>& schedule);

}  // namespace perfbench
