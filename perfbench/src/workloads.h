#ifndef TMN_PERFBENCH_WORKLOADS_H_
#define TMN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace tmn::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  // Measured time of the run, shared out among the workload's phases.
  double seconds = 10.0;
  // Traced run: record spans, replay layer calls, report per-layer
  // metrics instead of end-to-end ones.
  bool trace = false;
  // Private working directory (model bundle, index, span log).
  std::string work_dir;
};

WorkloadResult RunServeEmbed(const RunOptions& options);
WorkloadResult RunServeExact(const RunOptions& options);
WorkloadResult RunIngestSearch(const RunOptions& options);
WorkloadResult RunTrain(const RunOptions& options);

}  // namespace tmn::perfbench

#endif  // TMN_PERFBENCH_WORKLOADS_H_
