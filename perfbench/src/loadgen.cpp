#include "loadgen.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint32_t Rng::below(std::uint32_t n) {
  return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
}

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  Rng mixer(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return Rng(mixer.next());
}

const ClassShape& class_shape(RequestClass c) {
  static const ClassShape shapes[] = {
      {"gnn", csaw::AlgorithmId::kBiasedNeighborSampling, 2, 10, 32, 0.6,
       false},
      {"ppr", csaw::AlgorithmId::kRandomWalkWithRestart, 32, 1, 16, 0.3,
       false},
      {"n2v", csaw::AlgorithmId::kNode2vec, 40, 1, 8, 0.1, true},
  };
  return shapes[static_cast<std::size_t>(c)];
}

namespace {

RequestClass pick_class(Rng& rng) {
  double u = rng.uniform();
  for (const RequestClass c : kClasses) {
    u -= class_shape(c).share;
    if (u < 0.0) return c;
  }
  return RequestClass::kN2v;
}

std::vector<csaw::VertexId> uniform_seeds(Rng& rng, std::uint32_t count,
                                          csaw::VertexId num_vertices) {
  std::vector<csaw::VertexId> seeds(count);
  for (auto& v : seeds) v = rng.below(num_vertices);
  return seeds;
}

}  // namespace

std::vector<Arrival> mixed_schedule(
    std::uint64_t seed, double duration_s,
    const std::vector<csaw::VertexId>& graph_sizes) {
  const MixedLoad load;
  Rng rng = stream_rng(seed, 1);
  std::vector<double> due;
  for (double t = rng.exponential(load.rate_per_s); t < duration_s;
       t += rng.exponential(load.rate_per_s)) {
    due.push_back(t);
  }
  const double burst_start = load.burst_at * duration_s;
  for (std::uint32_t i = 0; i < load.burst_requests; ++i) {
    due.push_back(burst_start + rng.uniform() * load.burst_window_s);
  }
  std::sort(due.begin(), due.end());

  std::vector<Arrival> schedule(due.size());
  for (std::size_t k = 0; k < due.size(); ++k) {
    Arrival& a = schedule[k];
    a.due_s = due[k];
    a.cls = pick_class(rng);
    a.graph = rng.below(static_cast<std::uint32_t>(graph_sizes.size()));
    a.rng_base = static_cast<std::uint32_t>(k) * load.rng_stride;
    a.seeds = uniform_seeds(rng, class_shape(a.cls).instances,
                            graph_sizes[a.graph]);
  }
  return schedule;
}

std::vector<csaw::VertexId> corpus_seeds(std::uint64_t seed, std::uint64_t call,
                                         std::uint32_t count,
                                         csaw::VertexId num_vertices) {
  Rng rng = stream_rng(seed, (2ull << 40) + call);
  return uniform_seeds(rng, count, num_vertices);
}

std::vector<csaw::VertexId> client_seeds(std::uint64_t seed, std::uint32_t client,
                                         std::uint64_t k, std::uint32_t count,
                                         csaw::VertexId num_vertices) {
  Rng rng = stream_rng(seed, (3ull << 40) + (std::uint64_t{client} << 32) + k);
  return uniform_seeds(rng, count, num_vertices);
}

std::string serialize(const std::vector<Arrival>& schedule) {
  std::string out;
  const auto put = [&out](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (const Arrival& a : schedule) {
    put(&a.due_s, sizeof a.due_s);
    put(&a.cls, sizeof a.cls);
    put(&a.graph, sizeof a.graph);
    put(&a.rng_base, sizeof a.rng_base);
    const std::uint64_t n = a.seeds.size();
    put(&n, sizeof n);
    put(a.seeds.data(), a.seeds.size() * sizeof(csaw::VertexId));
  }
  return out;
}

}  // namespace perfbench
