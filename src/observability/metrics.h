#ifndef SLIME4REC_OBSERVABILITY_METRICS_H_
#define SLIME4REC_OBSERVABILITY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slime {
namespace obs {

/// slime::obs — the library's substitute for Prometheus client libraries
/// and torch.profiler (see DESIGN.md §1): a process-local metrics registry
/// whose snapshots are plain data, deterministic under a FakeClock, and
/// exportable as JSONL or a human table (export.h).
///
/// Design constraints, in order:
///  1. **Lock-cheap hot path.** Handles (Counter/Gauge/Histogram) are tiny
///     value types holding a raw pointer into registry-owned storage; an
///     increment is one relaxed atomic RMW, no lock, no map lookup. The
///     registry mutex is only taken at handle-creation and snapshot time.
///  2. **Deterministic snapshots.** All state is integer (counts, sums,
///     nanosecond values); percentile extraction is integer arithmetic over
///     fixed buckets, so two runs feeding identical observation sequences
///     (e.g. under a FakeClock) produce bit-identical snapshots at any
///     thread count.
///
/// Metric values are int64 throughout: counters count events, gauges hold
/// the latest level, histograms observe nanoseconds (or any other integer
/// unit — name the metric accordingly, e.g. "serving.request_nanos").

class MetricsRegistry;

namespace internal {

/// Registry-owned histogram storage. `bounds` are inclusive upper bounds of
/// the first bounds.size() buckets; one implicit overflow bucket follows.
struct HistogramCell {
  std::vector<int64_t> bounds;
  std::unique_ptr<std::atomic<int64_t>[]> buckets;  // bounds.size() + 1
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> min{0};  // valid only while count > 0
  std::atomic<int64_t> max{0};
};

}  // namespace internal

/// Monotone event counter. Default-constructed handles are detached:
/// Increment is a no-op and value() reads 0.
class Counter {
 public:
  Counter() = default;

  void Increment(int64_t delta = 1) {
    if (slot_ != nullptr) slot_->fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const {
    return slot_ != nullptr ? slot_->load(std::memory_order_relaxed) : 0;
  }
  bool attached() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<int64_t>* slot) : slot_(slot) {}
  std::atomic<int64_t>* slot_ = nullptr;
};

/// Last-value-wins level (queue depth, cost estimate, health code).
class Gauge {
 public:
  Gauge() = default;

  void Set(int64_t value) {
    if (slot_ != nullptr) slot_->store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (slot_ != nullptr) slot_->fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const {
    return slot_ != nullptr ? slot_->load(std::memory_order_relaxed) : 0;
  }
  bool attached() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<int64_t>* slot) : slot_(slot) {}
  std::atomic<int64_t>* slot_ = nullptr;
};

/// Fixed-bucket integer histogram with min/max/sum tracking. Bucket
/// boundaries are frozen at creation, so Observe never allocates and the
/// percentile extraction in snapshots is reproducible.
class Histogram {
 public:
  Histogram() = default;

  void Observe(int64_t value);

  int64_t count() const {
    return cell_ != nullptr ? cell_->count.load(std::memory_order_relaxed)
                            : 0;
  }
  int64_t sum() const {
    return cell_ != nullptr ? cell_->sum.load(std::memory_order_relaxed) : 0;
  }
  bool attached() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::HistogramCell* cell) : cell_(cell) {}
  internal::HistogramCell* cell_ = nullptr;
};

/// One counter/gauge in a snapshot.
struct MetricValue {
  std::string name;
  int64_t value = 0;
};

/// One histogram in a snapshot, percentiles pre-extracted. `bounds` are the
/// configured upper bounds; `buckets` has bounds.size() + 1 entries, the
/// last being the overflow bucket. Percentiles report the selected bucket's
/// upper bound (clamped to the observed max), computed with pure integer
/// arithmetic: rank = ceil(count * p / 100), first bucket whose cumulative
/// count reaches the rank.
struct HistogramValue {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
  std::vector<int64_t> bounds;
  std::vector<int64_t> buckets;
};

/// Point-in-time copy of every metric, sorted by name (std::map order), so
/// identical registry contents always serialise identically.
struct MetricsSnapshot {
  std::vector<MetricValue> counters;
  std::vector<MetricValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// Extracts the integer percentile (p in [0, 100]) from a histogram value's
/// buckets; exposed for tests.
int64_t HistogramPercentile(const HistogramValue& h, int64_t p);

/// Owns metric storage and hands out cheap handles. Thread-safe: handle
/// creation and Snapshot take the registry mutex; handle operations are
/// lock-free. Storage addresses are stable for the registry's lifetime
/// (deque/unique_ptr cells), so handles may be freely copied and cached.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the handle for `name`, creating the metric on first use.
  /// Requesting the same name twice returns handles over the same storage;
  /// requesting a name already registered as a different metric kind
  /// aborts (programming error).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// `bounds` must be strictly increasing; empty selects
  /// DefaultLatencyBounds(). Bounds are fixed by the first registration.
  Histogram histogram(const std::string& name,
                      std::vector<int64_t> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Default histogram bucketing for nanosecond latencies: powers of four
  /// from 1us to ~4.4s (12 buckets + overflow). Integer bounds keep
  /// percentile extraction exact.
  static const std::vector<int64_t>& DefaultLatencyBounds();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<int64_t>>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<int64_t>>> gauges_;
  std::map<std::string, std::unique_ptr<internal::HistogramCell>>
      histograms_;
};

}  // namespace obs
}  // namespace slime

#endif  // SLIME4REC_OBSERVABILITY_METRICS_H_
