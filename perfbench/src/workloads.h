// The three workloads of the repo benchmark. Each runs its phases for
// Options::seconds, checks the program's outputs, and fills the report with
// its end-to-end metrics (and, when tracing, its per-layer metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Read-only similarity search on the d=192 int8 serving deployment.
void RunSearch(const Options& options, Report* report);

/// GPS ingest through StreamPipeline with a side search stream.
void RunIngest(const Options& options, Report* report);

/// Back-to-back adaptation rounds under a replay and a query stream.
void RunAdapt(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
