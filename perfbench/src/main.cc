// The repository benchmark program (see ../README.md).
//
//   tmn_perfbench --workload <serve_embed|serve_exact|ingest_search|train>
//                 --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs one seeded workload against the public APIs of src/serve,
// src/index/segmented and src/core, checks every answer, prints a
// human-readable stamp and metric table, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. Exits 1 when any
// answer fails its check, 2 on a usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "nn/kernels/kernels.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tmn::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"query_p50_ms", "ms"},
    {"peak_qps", "queries/s"}, {"recall_at_k", "fraction"},
    {"ops_per_s", "1/s"},      {"peak_rss_mb", "MiB"},
};

// The per-layer metrics of a traced run. A layer a workload does not
// exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"serve.batch_size_mean", "queries"},
    {"serve.batch_wait_ms_mean", "ms"},
    {"serve.flush_linger_frac", "fraction"},
    {"serve.tier_expected_frac", "fraction"},
    {"serve.stage_sum_frac", "fraction"},
    {"common.pool_wait_ms_mean", "ms"},
    {"eval.encode_us_per_query", "us"},
    {"nn.padded_step_frac", "fraction"},
    {"index.hnsw_us_per_query", "us"},
    {"index.hnsw_nodes_per_query", "nodes"},
    {"distance.calls_per_query", "calls"},
    {"distance.us_per_call", "us"},
    {"distance.ns_per_cell", "ns"},
    {"distance.matrix_pairs_per_s", "pairs/s"},
    {"index.append_rps", "appends/s"},
    {"index.append_us", "us"},
    {"index.seal_append_ms", "ms"},
    {"index.append_p50_ms", "ms"},
    {"index.append_p99_ms", "ms"},
    {"index.search_us", "us"},
    {"index.search_p99_ingest_ms", "ms"},
    {"index.sources_per_query", "sources"},
    {"index.compact_passes", "count"},
    {"index.write_amp", "ratio"},
    {"core.forward_us_per_pair", "us"},
    {"core.backward_us_per_pair", "us"},
    {"core.optimizer_us_per_step", "us"},
    {"core.sub_cache_hit_frac", "fraction"},
    {"core.sub_distance_s", "s"},
    {"core.parallel_efficiency", "fraction"},
    {"core.train_loss", "loss"},
    {"bench.query_p99_ms", "ms"},
    {"bench.gen_late_ms_p99", "ms"},
    {"bench.trace_overhead_frac", "fraction"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "tmn_perfbench: %s\nusage: tmn_perfbench --workload "
               "<serve_embed|serve_exact|ingest_search|train> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

// Orders `got` by `specs`, failing loudly on a missing or unknown name
// (a benchmark bug, not a measurement). With `zero_fill`, names the
// workload did not measure report 0.
template <size_t N>
bool Arrange(const MetricSpec (&specs)[N], const std::vector<Metric>& got,
             bool zero_fill, std::vector<Metric>* out) {
  std::map<std::string, double> by_name;
  for (const Metric& m : got) by_name[m.name] = m.value;
  bool ok = true;
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end() && !zero_fill) {
      std::fprintf(stderr, "tmn_perfbench: metric %s was not measured\n",
                   spec.name);
      ok = false;
      continue;
    }
    out->push_back(
        Metric{spec.name, it == by_name.end() ? 0.0 : it->second, spec.unit});
    if (it != by_name.end()) by_name.erase(it);
  }
  for (const auto& [name, value] : by_name) {
    std::fprintf(stderr, "tmn_perfbench: undeclared metric %s\n",
                 name.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace tmn::perfbench

int main(int argc, char** argv) {
  using namespace tmn::perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("arguments come in --key value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }
  RunOptions options;
  const std::string workload = args["workload"];
  char* end = nullptr;
  options.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  options.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  options.trace = args["trace"] == "1";
  options.work_dir = args["work-dir"];

  WorkloadResult (*run)(const RunOptions&) = nullptr;
  if (workload == "serve_embed") run = &RunServeEmbed;
  if (workload == "serve_exact") run = &RunServeExact;
  if (workload == "ingest_search") run = &RunIngestSearch;
  if (workload == "train") run = &RunTrain;
  if (run == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());

  std::printf("tmn_perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              FormatNumber(options.seconds).c_str(), options.trace ? 1 : 0);
  std::printf("  machine: nproc=%ld hardware_concurrency=%u pool_threads=%d "
              "kernels=%s build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              tmn::common::ThreadPool::Global().size(),
              tmn::nn::kernels::BackendName(tmn::nn::kernels::ActiveBackend()),
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  WorkloadResult result = run(options);
  if (!options.trace) {
    result.metrics.push_back(Metric{"peak_rss_mb", PeakRssMb(), "MiB"});
  }

  for (const auto& [key, value] : result.stamp) {
    std::printf("  param %s=%s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : result.report) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : result.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::vector<Metric> emitted;
  const bool complete =
      options.trace ? Arrange(kPerLayer, result.layers, true, &emitted)
                    : Arrange(kEndToEnd, result.metrics, false, &emitted);
  bool finite = true;
  for (const Metric& m : emitted) finite = finite && std::isfinite(m.value);
  const bool correct = result.failed == 0 && result.errors.empty() &&
                       result.attempted > 0 && complete && finite;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < emitted.size(); ++i) {
    const Metric& m = emitted[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? FormatNumber(m.value) : "null") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
