// Microbenchmarks (google-benchmark) of the selection primitives: the
// warp scan, CTPS construction, the three ITS collision policies, the
// collision detectors, and the dartboard/alias baselines. These measure
// host wall time of the primitive implementations (not simulated device
// time) and back the "why ITS on GPUs" discussion in §II-B/§IV.
#include <benchmark/benchmark.h>

#include "select/alias.hpp"
#include "select/ctps.hpp"
#include "select/dartboard.hpp"
#include "select/its.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"

namespace {

using namespace csaw;

std::vector<float> power_law_biases(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> biases(n);
  for (auto& b : biases) {
    // Pareto-ish tail: skewed like a power-law neighbor degree vector.
    b = static_cast<float>(1.0 / (0.05 + rng.uniform()));
  }
  return biases;
}

void BM_KoggeStoneScan(benchmark::State& state) {
  auto data = power_law_biases(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = data;
    kogge_stone_scan(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KoggeStoneScan)->Arg(32)->Arg(256)->Arg(4096);

void BM_CtpsBuild(benchmark::State& state) {
  const auto biases =
      power_law_biases(static_cast<std::size_t>(state.range(0)), 2);
  Ctps ctps;
  for (auto _ : state) {
    ctps.build(biases);
    benchmark::DoNotOptimize(ctps.f().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CtpsBuild)->Arg(32)->Arg(256)->Arg(4096);

void BM_ItsSelect(benchmark::State& state) {
  const auto policy = static_cast<CollisionPolicy>(state.range(0));
  const auto biases =
      power_law_biases(static_cast<std::size_t>(state.range(1)), 3);
  const auto k = static_cast<std::uint32_t>(state.range(2));

  SelectConfig config;
  config.policy = policy;
  config.detector = DetectorKind::kBitmapStrided;
  ItsSelector selector(config);
  CounterStream rng(42);
  sim::KernelStats stats;

  std::uint32_t instance = 0;
  std::vector<std::uint32_t> picked;
  for (auto _ : state) {
    sim::WarpContext warp(stats);
    selector.select(biases, k, rng, SelectCoords{instance++, 0, 0}, warp,
                    picked);
    benchmark::DoNotOptimize(picked.data());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_ItsSelect)
    ->ArgsProduct({{static_cast<long>(CollisionPolicy::kRepeatedSampling),
                    static_cast<long>(CollisionPolicy::kUpdatedSampling),
                    static_cast<long>(
                        CollisionPolicy::kBipartiteRegionSearch)},
                   {64, 1024},
                   {2, 16}});

void BM_DartboardDraw(benchmark::State& state) {
  const auto biases =
      power_law_biases(static_cast<std::size_t>(state.range(0)), 4);
  const Dartboard board(biases);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(board.draw(rng));
  }
}
BENCHMARK(BM_DartboardDraw)->Arg(64)->Arg(1024);

void BM_AliasBuildAndDraw(benchmark::State& state) {
  const auto biases =
      power_law_biases(static_cast<std::size_t>(state.range(0)), 5);
  const bool rebuild = state.range(1) != 0;
  AliasTable table(biases);
  Xoshiro256 rng(9);
  for (auto _ : state) {
    if (rebuild) table.build(biases);  // KnightKing's preprocessing cost
    benchmark::DoNotOptimize(table.sample(rng));
  }
}
BENCHMARK(BM_AliasBuildAndDraw)
    ->ArgsProduct({{64, 1024}, {0, 1}});

}  // namespace

BENCHMARK_MAIN();
