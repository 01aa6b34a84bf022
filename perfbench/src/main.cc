// The repository benchmark. Usage (normally through perfbench/run.py):
//
//   perfbench --workload train|rank_large_catalog|serve_mixed --seed N
//             --seconds S --trace 0|1 --serve-rate R --out-dir DIR
//             --tmp-dir DIR [--commit ID]
//
// --trace 0 measures the workload end to end, untraced; --trace 1 runs the
// traced per-layer ledger at the workload's shapes. The last line of
// stdout is the one-line JSON result; the exit code is non-zero when a
// correctness check failed or the arguments were refused.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "compute/backend.h"
#include "compute/kernels.h"
#include "compute/thread_pool.h"
#include "harness.h"
#include "runs.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::RunOptions;
  for (const char* var :
       {"SLIME_NUM_THREADS", "SLIME_KERNEL_BACKEND", "SLIME_BENCH_SCALE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "fixes threads, backend and scale itself\n",
                   var);
      return 2;
    }
  }
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--serve-rate") {
      opt.serve_rate = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.serve_rate > 0)) {
        return Usage("bad --serve-rate");
      }
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--tmp-dir") {
      opt.tmp_dir = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::KnownWorkload(opt.workload)) return Usage("bad --workload");
  if (!have_seed) return Usage("--seed is required");
  if (opt.serve_rate <= 0) return Usage("--serve-rate is required");
  if (opt.out_dir.empty() || opt.tmp_dir.empty()) {
    return Usage("--out-dir and --tmp-dir are required");
  }
  std::filesystem::create_directories(opt.out_dir);

  // Resolve the library's default kernel backend before anything runs, so
  // the provenance records what the workload actually used.
  (void)slime::compute::Dispatch();
  const perfbench::WorkloadShape shape = perfbench::ShapeOf(opt.workload);
  perfbench::Report report;
  report.Note("workload", opt.workload);
  report.Note("seed", std::to_string(opt.seed));
  report.Note("trace", opt.trace ? "1" : "0");
  report.Note("seconds", perfbench::FormatDouble(opt.seconds));
  report.Note("nproc", std::to_string(slime::compute::HardwareThreads()));
  report.Note("cpu_features", slime::compute::CpuFeatureString());
  report.Note("kernel_backend", slime::compute::ActiveKernelBackend());
  report.Note("compute_threads", std::to_string(shape.threads));
  report.Note("client_threads", std::to_string(perfbench::ClientThreads()));
  report.Note("serve_rate", perfbench::FormatDouble(opt.serve_rate));
  report.Note("commit", opt.commit.empty() ? "unknown" : opt.commit);
  std::printf(
      "perfbench workload=%s seed=%llu trace=%d seconds=%g nproc=%d "
      "cpu_features=\"%s\" kernel_backend=%s compute_threads=%d commit=%s\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, opt.seconds, slime::compute::HardwareThreads(),
      slime::compute::CpuFeatureString().c_str(),
      slime::compute::ActiveKernelBackend().c_str(), shape.threads,
      opt.commit.empty() ? "unknown" : opt.commit.c_str());

  perfbench::Checks checks;
  if (opt.trace) {
    perfbench::RunLedger(opt, &report, &checks);
  } else {
    perfbench::RunEndToEnd(opt, &report, &checks);
  }
  perfbench::RemoveFreshDirs();
  slime::compute::SetNumThreads(1);  // joins the pool's workers

  const std::string details = opt.out_dir + "/" + opt.workload + "-seed" +
                              std::to_string(opt.seed) + "-trace" +
                              (opt.trace ? "1" : "0") + ".json";
  checks.Expect(report.WriteDetails(details), "cannot write " + details);
  std::printf("details: %s\n", details.c_str());
  const bool correct = checks.ok() && report.attempted() > 0;
  std::printf("%s\n", report.FinalLine(correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
