#ifndef DFLOWBENCH_WORKLOAD_H_
#define DFLOWBENCH_WORKLOAD_H_

// The benchmark's request streams, as dflow_load draws them: request `index`
// of a stream is a pure function of (--dist, --distinct, --dist-seed, index),
// so bench_ladder replays in-process exactly the requests dflow_load sends
// over the wire, for any connection split and any completion order.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/schema_generator.h"

namespace dflowbench {

using dflow::Rng;

// class ClassPicker, the class distribution behind --dist, exactly as
// bench/dflow_load.cc defines it: CMakeLists.txt copies its text out of that
// file at configure time, so both tools draw the same classes.
#include "class_picker.inc"

// Requests [0, kPrefix) of a stream are the fixed sample the correctness
// fingerprint and the paper's Work and TimeInUnits are taken over.
constexpr int kPrefix = 8192;

// One stream of requests over dflow_load's pattern: its default flags,
// --nodes=64 --rows=4 --pattern-seed=1, which are PatternParams' defaults
// with seed 1, the pattern dflow_serve serves by default. A mismatch would
// fail every fingerprint check.
inline dflow::gen::GeneratedSchema MakePattern() {
  dflow::gen::PatternParams params;
  params.seed = 1;
  return dflow::gen::GeneratePattern(params);
}

class RequestStream {
 public:
  // False when the --dist spec does not parse.
  bool Init(const dflow::gen::GeneratedSchema* pattern, const std::string& dist,
            int distinct, uint64_t seed) {
    pattern_ = pattern;
    return picker_.Init(dist, distinct, seed);
  }

  // dflow_load's seed for request `index`.
  uint64_t Seed(int index) const {
    return dflow::gen::InstanceSeed(pattern_->params, picker_.Pick(index));
  }

 private:
  const dflow::gen::GeneratedSchema* pattern_ = nullptr;
  ClassPicker picker_;
};

// Folds (request id, result fingerprint) pairs into one digest, in request
// id order: the fold dflow_load reports as workload_fingerprint, so a run of
// requests [0, kPrefix) on one connection reports the same digest.
inline uint64_t FoldFingerprints(
    std::vector<std::pair<uint64_t, uint64_t>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t digest = Rng::Mix(0x10adf1, pairs.size());
  for (const auto& [request_id, fingerprint] : pairs) {
    digest = Rng::Mix(digest, request_id);
    digest = Rng::Mix(digest, fingerprint);
  }
  return digest;
}

}  // namespace dflowbench

#endif  // DFLOWBENCH_WORKLOAD_H_
