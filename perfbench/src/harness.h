// Shared plumbing of the repository benchmark: clocks, order statistics,
// correctness bookkeeping, the in-memory span log (Chrome Trace Event
// export and self-time tables) and the result printer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "observability/trace.h"

namespace perfbench {

/// Steady-clock nanoseconds; the same time base as serving::Clock::Default,
/// so spans recorded here and spans recorded by the library's obs::Tracer
/// line up on one timeline.
int64_t NowNanos();
inline double NanosToMs(int64_t nanos) { return nanos / 1e6; }
inline double NanosToUs(int64_t nanos) { return nanos / 1e3; }

/// Nearest-rank quantile (q in [0, 1]) of `v`; `v` must be non-empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// A latency summary in the benchmark's reporting convention: the median
/// and the highest of the percentiles {99.9, 99, 95, 90, 75} that still has
/// at least ten samples beyond it (none when fewer than 14 samples exist).
struct LatencySummary {
  int64_t samples = 0;
  double p50 = 0.0;
  double tail_level = 0.0;  // percentile, e.g. 99.0; 0 when no tail exists
  double tail = 0.0;
  std::string Describe(const std::string& unit) const;
};
LatencySummary Summarize(const std::vector<double>& values);

/// Correctness checks. A failed check is printed at once and turns the
/// run's `correct` flag false; main() then exits non-zero.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }
  int64_t failures() const { return failures_; }

 private:
  std::mutex mu_;
  int64_t failures_ = 0;
};

/// One timed interval on the benchmark's timeline.
struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;  // index into SpanLog::spans(), -1 for a root
  int64_t lane = 0;     // Chrome-trace thread id
};

/// Aggregated per-name timing of a span log.
struct SpanStats {
  int64_t count = 0;
  int64_t total_nanos = 0;
  int64_t self_nanos = 0;
  std::vector<double> durations_us;
};

/// In-memory span recorder. Spans are kept until the end of the run and
/// then written out; nothing touches the disk while timing. Begin/End nest
/// on a single stack (lane 0, the benchmark's driving thread); concurrent
/// producers hand finished spans in through AddTree.
class SpanLog {
 public:
  int32_t Begin(const std::string& name);
  void End(int32_t span);
  /// Times `fn` as a span named `name` nested under the open span.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    const int32_t s = Begin(name);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(s);
    } else {
      auto out = fn();
      End(s);
      return out;
    }
  }
  /// Appends a finished span tree (parents index into `tree`) on its own
  /// lane. Thread-safe.
  void AddTree(const std::vector<Span>& tree, int64_t lane);
  /// Imports the library's request traces, prefixing span names with
  /// `prefix`, each trace on the first lane (from `first_lane` up) that is
  /// free at its start time.
  void ImportTraces(const std::vector<slime::obs::Trace>& traces,
                    const std::string& prefix, int64_t first_lane);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Per-name totals; self time is a span's duration minus the part of
  /// its interval that its children cover.
  std::map<std::string, SpanStats> Stats() const;
  /// Chrome Trace Event Format ("X" complete events, microseconds), which
  /// Perfetto and chrome://tracing open offline.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// The run's output: named measurements printed one per line as they are
/// made, and the final one-line JSON object the benchmark contract asks
/// for (which must be the last line of stdout).
class Report {
 public:
  /// A contract metric (end-to-end or per-layer, per the run mode).
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// An informational measurement that is printed and written to the
  /// details file but is not part of the contract's metric set.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
  void Note(const std::string& key, const std::string& value);
  void CountOps(int64_t attempted, int64_t failed);

  int64_t attempted() const { return attempted_; }
  size_t metric_count() const { return metrics_.size(); }
  int64_t failed() const { return failed_; }
  /// Writes every metric, info value and note as one JSON document.
  bool WriteDetails(const std::string& path) const;
  /// The contract line.
  std::string FinalLine(bool correct) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> infos_;
  std::vector<std::pair<std::string, std::string>> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

std::string JsonEscape(const std::string& s);
/// Shortest round-trip decimal form of a double (all measured digits).
std::string FormatDouble(double v);

/// Repeats `fn` (after one untimed warm-up call) until at least
/// `min_reps` calls and `min_seconds` of timed calls are done, at most
/// `max_reps`; returns each call's wall time in microseconds.
std::vector<double> RepeatUs(const std::function<void()>& fn, int min_reps,
                             double min_seconds, int max_reps = 100000);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
