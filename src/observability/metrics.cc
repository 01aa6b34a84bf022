#include "observability/metrics.h"

#include <algorithm>

#include "common/macros.h"

namespace slime {
namespace obs {

void Histogram::Observe(int64_t value) {
  if (cell_ == nullptr) return;
  internal::HistogramCell& c = *cell_;
  // Linear scan: bucket counts are small (default 12) and the scan is
  // branch-predictable; a binary search buys nothing at this size.
  size_t idx = 0;
  const size_t n = c.bounds.size();
  while (idx < n && value > c.bounds[idx]) ++idx;
  c.buckets[idx].fetch_add(1, std::memory_order_relaxed);
  c.sum.fetch_add(value, std::memory_order_relaxed);
  // min/max via CAS loops; first observation initialises both.
  if (c.count.fetch_add(1, std::memory_order_relaxed) == 0) {
    c.min.store(value, std::memory_order_relaxed);
    c.max.store(value, std::memory_order_relaxed);
  }
  int64_t cur = c.min.load(std::memory_order_relaxed);
  while (value < cur &&
         !c.min.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = c.max.load(std::memory_order_relaxed);
  while (value > cur &&
         !c.max.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  SLIME_CHECK_MSG(gauges_.find(name) == gauges_.end(),
              "metric name already registered as a gauge");
  SLIME_CHECK_MSG(histograms_.find(name) == histograms_.end(),
              "metric name already registered as a histogram");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::make_unique<std::atomic<int64_t>>(0))
             .first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  SLIME_CHECK_MSG(counters_.find(name) == counters_.end(),
              "metric name already registered as a counter");
  SLIME_CHECK_MSG(histograms_.find(name) == histograms_.end(),
              "metric name already registered as a histogram");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<std::atomic<int64_t>>(0))
             .first;
  }
  return Gauge(it->second.get());
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<int64_t> bounds) {
  if (bounds.empty()) bounds = DefaultLatencyBounds();
  for (size_t i = 1; i < bounds.size(); ++i) {
    SLIME_CHECK_MSG(bounds[i - 1] < bounds[i],
                "histogram bounds must be strictly increasing");
  }
  std::lock_guard<std::mutex> lock(mu_);
  SLIME_CHECK_MSG(counters_.find(name) == counters_.end(),
              "metric name already registered as a counter");
  SLIME_CHECK_MSG(gauges_.find(name) == gauges_.end(),
              "metric name already registered as a gauge");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    auto cell = std::make_unique<internal::HistogramCell>();
    cell->bounds = std::move(bounds);
    cell->buckets =
        std::make_unique<std::atomic<int64_t>[]>(cell->bounds.size() + 1);
    for (size_t i = 0; i <= cell->bounds.size(); ++i) {
      cell->buckets[i].store(0, std::memory_order_relaxed);
    }
    it = histograms_.emplace(name, std::move(cell)).first;
  }
  return Histogram(it->second.get());
}

int64_t HistogramPercentile(const HistogramValue& h, int64_t p) {
  if (h.count == 0) return 0;
  // rank = ceil(count * p / 100) observations, clamped to [1, count].
  int64_t rank = (h.count * p + 99) / 100;
  rank = std::max<int64_t>(1, std::min(rank, h.count));
  int64_t cumulative = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    cumulative += h.buckets[i];
    if (cumulative >= rank) {
      // Report the bucket's upper bound, clamped to the true observed range
      // so p100 of a single observation equals that observation.
      const int64_t upper =
          i < h.bounds.size() ? h.bounds[i] : h.max;
      return std::max(h.min, std::min(upper, h.max));
    }
  }
  return h.max;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.push_back(
        {name, cell->load(std::memory_order_relaxed)});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back({name, cell->load(std::memory_order_relaxed)});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    HistogramValue h;
    h.name = name;
    h.count = cell->count.load(std::memory_order_relaxed);
    h.sum = cell->sum.load(std::memory_order_relaxed);
    if (h.count > 0) {
      h.min = cell->min.load(std::memory_order_relaxed);
      h.max = cell->max.load(std::memory_order_relaxed);
    }
    h.bounds = cell->bounds;
    h.buckets.resize(cell->bounds.size() + 1);
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] = cell->buckets[i].load(std::memory_order_relaxed);
    }
    h.p50 = HistogramPercentile(h, 50);
    h.p95 = HistogramPercentile(h, 95);
    h.p99 = HistogramPercentile(h, 99);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

const std::vector<int64_t>& MetricsRegistry::DefaultLatencyBounds() {
  // Powers of four from 1us: 1us, 4us, 16us, ... ~4.4s (12 buckets).
  static const std::vector<int64_t> kBounds = [] {
    std::vector<int64_t> b;
    int64_t v = 1000;
    for (int i = 0; i < 12; ++i) {
      b.push_back(v);
      v *= 4;
    }
    return b;
  }();
  return kBounds;
}

}  // namespace obs
}  // namespace slime
