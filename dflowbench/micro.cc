// bench_micro: the benchmark's own Google Benchmark cases, beside the
// repository's bench_micro_benchmarks (which supplies the prequalifier,
// instance and simulator cases). Each runs over the 64-node pattern the
// workloads serve: one SUBMIT frame encoded, one SUBMIT_RESULT payload
// decoded, and one result-cache hit. dflow_bench.py runs both binaries with
// --benchmark_format=json and reads each case's real_time.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/runner.h"
#include "net/wire_protocol.h"
#include "runtime/result_cache.h"
#include "workload.h"

namespace {

using namespace dflow;

const gen::GeneratedSchema& Pattern() {
  static const gen::GeneratedSchema& pattern =
      *new gen::GeneratedSchema(dflowbench::MakePattern());
  return pattern;
}

const core::Strategy& Pse100() {
  static const core::Strategy strategy = *core::Strategy::Parse("PSE100");
  return strategy;
}

uint64_t Seed(int i) { return gen::InstanceSeed(Pattern().params, i); }

void BM_WireEncodeSubmit(benchmark::State& state) {
  net::SubmitRequest request;
  request.request_id = 1;
  request.seed = Seed(0);
  request.sources = gen::MakeSourceBinding(Pattern(), request.seed);
  std::vector<uint8_t> frame;
  for (auto _ : state) {
    frame.clear();
    net::EncodeSubmit(request, &frame);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WireEncodeSubmit);

// The answer the benchmark's clients receive: a summary of a real PSE100
// instance, without snapshot or trace trailer.
void BM_WireDecodeSubmitResult(benchmark::State& state) {
  const uint64_t seed = Seed(0);
  const core::InstanceResult run = core::RunSingleInfinite(
      Pattern().schema, gen::MakeSourceBinding(Pattern(), seed), seed,
      Pse100());
  net::SubmitResult result;
  result.request_id = 1;
  result.work = run.metrics.work;
  result.wasted_work = run.metrics.wasted_work;
  result.response_time = run.metrics.ResponseTime();
  result.queries_launched = run.metrics.queries_launched;
  result.speculative_launches = run.metrics.speculative_launches;
  result.fingerprint = net::FingerprintResult(run);
  result.strategy = Pse100().ToString();
  std::vector<uint8_t> frame;
  net::EncodeSubmitResult(result, &frame);
  const std::vector<uint8_t> payload(frame.begin() + net::kFrameHeaderBytes,
                                     frame.end());
  net::SubmitResult decoded;
  for (auto _ : state) {
    if (!net::DecodeSubmitResult(payload, &decoded)) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded.fingerprint);
  }
}
BENCHMARK(BM_WireDecodeSubmitResult);

// Hits on a full 256-entry cache (the hot workloads' --cache), cycling
// through every resident key.
void BM_ResultCacheProbeHit(benchmark::State& state) {
  constexpr int kEntries = 256;
  runtime::ResultCache cache(kEntries, Pse100());
  std::vector<uint64_t> seeds;
  std::vector<core::SourceBinding> sources;
  for (int i = 0; i < kEntries; ++i) {
    seeds.push_back(Seed(i));
    sources.push_back(gen::MakeSourceBinding(Pattern(), seeds.back()));
    cache.Insert(sources.back(), seeds.back(),
                 core::RunSingleInfinite(Pattern().schema, sources.back(),
                                         seeds.back(), Pse100()));
  }
  size_t i = 0;
  for (auto _ : state) {
    const core::InstanceResult* hit = cache.Lookup(sources[i], seeds[i]);
    if (hit == nullptr) {
      state.SkipWithError("probe missed");
      break;
    }
    benchmark::DoNotOptimize(hit);
    i = (i + 1) % kEntries;
  }
}
BENCHMARK(BM_ResultCacheProbeHit);

}  // namespace
