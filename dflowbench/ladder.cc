// bench_ladder: replays the first kPrefix requests of a workload's stream
// in-process, at the two layers below the wire, with the server
// configuration the workload's dflow_serve runs:
//
//   L0  a core::FlowHarness::Run loop (engine + simulator), one instance at
//       a time, timed per call; also counts simulator events per request.
//   L1  a runtime::FlowServer (shard queues, cache, advisor, stats,
//       profiler): Submit, then wait for the result callback, one request
//       at a time. The prefix is replayed twice and the second pass timed,
//       so the cache holds what it can of the prefix, as in the wire rows.
//
// The wire rows (L2 direct, L4 routed) are dflow_load runs of the same
// requests; the gap between adjacent rows is that layer's cost. Both rows
// here fold their result fingerprints as dflow_load does, so the digest a
// server answered with can be checked against them. Under --strategy=AUTO the
// advisor is built from the cost model a served dflow_serve wrote with
// --advisor-calibration=FILE, so every AUTO choice matches the served one.
//
// --reference skips the timing and runs only L1, with every request in
// flight at once: it prints the prefix fingerprint (the correctness
// reference of an untraced benchmark run) and the mean of the paper's Work
// and TimeInUnits over the prefix.
//
// Run: bench_ladder --dist=uniform --distinct=1073741824 --dist-seed=1
//        --strategy=PSE100 --shards=2 --cache=256 [--reference]

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/runner.h"
#include "net/server_config.h"
#include "net/wire_protocol.h"
#include "opt/cost_model.h"
#include "opt/strategy_advisor.h"
#include "runtime/flow_server.h"
#include "workload.h"

using namespace dflow;

namespace {

using Clock = std::chrono::steady_clock;

// Linear-interpolated percentile (p in [0, 1]); sorts `values` in place.
double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double rank = p * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] * (1 - frac) + (*values)[hi] * frac;
}

std::string Quantiles(std::vector<double>* values) {
  char buffer[96];
  const double p50 = Percentile(values, 0.50);
  const double p99 = Percentile(values, 0.99);
  std::snprintf(buffer, sizeof(buffer), "{\"p50\":%.3f,\"p99\":%.3f}", p50,
                p99);
  return buffer;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "\"%016llx\"",
                static_cast<unsigned long long>(value));
  return buffer;
}

// The L1 row: a FlowServer whose result callback hands each result back to
// the submitting thread.
class ServerRow {
 public:
  ServerRow(const gen::GeneratedSchema& pattern,
            runtime::FlowServerOptions options)
      : pattern_(pattern), server_(&pattern.schema, std::move(options)) {
    server_.SetResultCallback(
        [this](int, const runtime::FlowRequest& request,
               const core::InstanceResult& result, const core::Strategy&) {
          std::lock_guard<std::mutex> lock(mu_);
          fingerprints_.emplace_back(request.ticket,
                                     net::FingerprintResult(result));
          work_sum_ += static_cast<double>(result.metrics.work);
          time_sum_ += result.metrics.ResponseTime();
          ++answered_;
          cv_.notify_all();
        });
  }

  // Request `index` of `stream`, under ticket index + 1.
  runtime::FlowRequest Make(const dflowbench::RequestStream& stream,
                            int index) const {
    runtime::FlowRequest request;
    request.seed = stream.Seed(index);
    request.sources = gen::MakeSourceBinding(pattern_, request.seed);
    request.ticket = static_cast<uint64_t>(index) + 1;
    return request;
  }

  void Submit(runtime::FlowRequest request) {
    server_.Submit(std::move(request));
  }

  void WaitAnswered(int64_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return answered_ >= count; });
  }

  // Fingerprint of everything answered since the last call.
  uint64_t TakeFingerprint() {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t digest = dflowbench::FoldFingerprints(fingerprints_);
    fingerprints_.clear();
    return digest;
  }

  // Mean Work and TimeInUnits of every answer so far.
  std::pair<double, double> PaperMeans() {
    std::lock_guard<std::mutex> lock(mu_);
    const double n = static_cast<double>(std::max<int64_t>(1, answered_));
    return {work_sum_ / n, time_sum_ / n};
  }

 private:
  const gen::GeneratedSchema& pattern_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<uint64_t, uint64_t>> fingerprints_;
  int64_t answered_ = 0;
  double work_sum_ = 0;
  double time_sum_ = 0;
  // Last: its shard threads call into the members above until it drains.
  runtime::FlowServer server_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string dist = "uniform";
  int distinct = 1 << 30;
  uint64_t dist_seed = 1;
  std::string strategy_text = "PSE100";
  bool bounded = false;
  int shards = 2;
  int cache = 0;
  std::string calibration;
  bool reference = false;
  net::ServerConfig flags(
      "bench_ladder",
      "Replays a workload's first 8192 requests in-process at the engine "
      "(L0) and FlowServer (L1) layers and prints one JSON report.");
  flags.String("dist", &dist, "class distribution, as dflow_load's --dist")
      .Int("distinct", &distinct, "request classes", 1)
      .Uint64("dist-seed", &dist_seed, "the stream's seed")
      .String("strategy", &strategy_text, "the served strategy, or AUTO")
      .Bool("bounded", &bounded, "run the bounded database backend")
      .Int("shards", &shards, "FlowServer shards", 1, 64)
      .Int("cache", &cache, "result cache entries per shard", 0)
      .String("advisor-calibration", &calibration,
              "AUTO only: the cost model the served dflow_serve wrote")
      .Bool("reference", &reference,
            "only compute the L1 prefix fingerprint, untimed");
  std::string flag_error;
  switch (flags.Parse(argc, argv, &flag_error)) {
    case net::ServerConfig::ParseStatus::kHelp:
      std::fputs(flags.Help().c_str(), stdout);
      return 0;
    case net::ServerConfig::ParseStatus::kError:
      std::fprintf(stderr, "bench_ladder: %s\n", flag_error.c_str());
      return 2;
    case net::ServerConfig::ParseStatus::kOk:
      break;
  }
  const std::optional<core::Strategy> strategy =
      core::Strategy::Parse(strategy_text);
  if (!strategy.has_value()) {
    std::fprintf(stderr, "bench_ladder: bad --strategy '%s'\n",
                 strategy_text.c_str());
    return 2;
  }
  const gen::GeneratedSchema pattern = dflowbench::MakePattern();
  dflowbench::RequestStream stream;
  if (!stream.Init(&pattern, dist, distinct, dist_seed)) {
    std::fprintf(stderr, "bench_ladder: cannot parse --dist '%s'\n",
                 dist.c_str());
    return 2;
  }
  const core::BackendKind backend =
      bounded ? core::BackendKind::kBoundedDb : core::BackendKind::kInfinite;
  const int n = dflowbench::kPrefix;

  runtime::FlowServerOptions options;
  options.num_shards = shards;
  options.strategy = *strategy;
  options.backend = backend;
  options.result_cache_capacity = static_cast<size_t>(cache);
  if (strategy->is_auto) {
    std::string error;
    std::optional<opt::CostModel> model =
        opt::CostModel::LoadFromFile(calibration, &error);
    if (!model.has_value()) {
      std::fprintf(stderr, "bench_ladder: --advisor-calibration: %s\n",
                   error.c_str());
      return 2;
    }
    opt::AdvisorOptions advisor;
    advisor.schema_salt = opt::SchemaSaltFromParams(pattern.params);
    options.advisor = std::make_shared<opt::StrategyAdvisor>(
        std::move(*model), opt::StrategyAdvisor::DefaultCandidates(),
        advisor);
  }

  if (reference) {
    ServerRow row(pattern, options);
    for (int i = 0; i < n; ++i) row.Submit(row.Make(stream, i));
    row.WaitAnswered(n);
    const auto [work, time_units] = row.PaperMeans();
    std::printf("{\"l1\":{\"fingerprint\":%s,\"work_mean\":%.9g,"
                "\"time_mean\":%.9g}}\n",
                Hex(row.TakeFingerprint()).c_str(), work, time_units);
    return 0;
  }

  // L0: the engine and simulator alone. Under AUTO each request runs on a
  // harness for the strategy the advisor picks, as a shard would.
  std::map<std::string, std::unique_ptr<core::FlowHarness>> harnesses;
  std::vector<std::pair<uint64_t, uint64_t>> l0_fingerprints;
  std::vector<double> exec_us;
  uint64_t events = 0;
  for (int i = 0; i < n; ++i) {
    const uint64_t seed = stream.Seed(i);
    const core::SourceBinding sources = gen::MakeSourceBinding(pattern, seed);
    const core::Strategy chosen =
        options.advisor != nullptr
            ? options.advisor->Choose(sources, seed).strategy
            : *strategy;
    std::unique_ptr<core::FlowHarness>& harness = harnesses[chosen.ToString()];
    if (harness == nullptr) {
      harness = std::make_unique<core::FlowHarness>(
          &pattern.schema, chosen, core::HarnessOptions{backend, {}});
    }
    const uint64_t events_before = harness->simulator().events_processed();
    const Clock::time_point t0 = Clock::now();
    const core::InstanceResult result = harness->Run(sources, seed);
    exec_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    events += harness->simulator().events_processed() - events_before;
    l0_fingerprints.emplace_back(static_cast<uint64_t>(i) + 1,
                                 net::FingerprintResult(result));
  }

  // L1: the FlowServer, one request in flight at a time; pass 1 primes.
  ServerRow row(pattern, options);
  std::vector<double> l1_us;
  for (int pass = 0; pass < 2; ++pass) {
    row.TakeFingerprint();
    for (int i = 0; i < n; ++i) {
      runtime::FlowRequest request = row.Make(stream, i);
      const Clock::time_point t0 = Clock::now();
      row.Submit(std::move(request));
      row.WaitAnswered(pass * n + i + 1);
      l1_us.push_back(std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count());
    }
    if (pass == 0) l1_us.clear();
  }

  std::string out = "{\"l0\":{\"exec_us\":" + Quantiles(&exec_us);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), ",\"events_per_req\":%.6f",
                static_cast<double>(events) / n);
  out += buffer;
  out += ",\"fingerprint\":" +
         Hex(dflowbench::FoldFingerprints(std::move(l0_fingerprints)));
  out += "},\"l1\":{\"latency_us\":" + Quantiles(&l1_us);
  out += ",\"fingerprint\":" + Hex(row.TakeFingerprint());
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
