// The two run modes: untraced end-to-end measurement (e2e.cc) and the
// traced per-layer ledger (ledger.cc).
#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Runs `opt.workload` untraced and reports the end-to-end metrics.
void RunEndToEnd(const RunOptions& opt, Report* report, Checks* checks);

/// Runs the traced ledger for `opt.workload` and reports the per-layer
/// metrics; writes the Chrome trace and prints the self-time tables.
void RunLedger(const RunOptions& opt, Report* report, Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
