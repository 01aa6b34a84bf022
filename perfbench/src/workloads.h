// Workload definitions shared by the end-to-end runs (e2e.cc) and the
// traced per-layer ledger (ledger.cc): shapes, seeded inputs, model and
// fleet construction, and the open-loop generator for the cluster tier.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "core/slime4rec.h"
#include "data/dataset.h"
#include "harness.h"
#include "metrics/ranking.h"
#include "models/recommender.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "serving/recommendation_service.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;    // details files and Chrome traces
  std::string tmp_dir;    // parent of the fresh state directories
  std::string commit;     // provenance, passed in by run.py
  double serve_rate = 0;  // serve_mixed fixed offered rate, ops/s
};

/// The shape one workload runs at.
struct WorkloadShape {
  std::string name;
  int64_t batch = 0;      // rows per model call
  int threads = 1;        // compute threads
  bool training = false;  // dropout on (training) or off (inference)
};

WorkloadShape ShapeOf(const std::string& workload);
/// A stream seed derived from the run seed (splitmix64 of seed ^ salt).
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);
bool KnownWorkload(const std::string& workload);
/// min(4, nproc): the train workload's compute thread count.
int TrainThreads();

inline constexpr int64_t kTopK = 10;
inline constexpr int64_t kLargeCatalogItems = 18000;

/// The workload's catalogue, generated from the run seed: beauty-like (400
/// items, 1,200 users) for train and serve_mixed, Sports-like with 18,000
/// items for rank_large_catalog. `max_prefixes` caps training instances
/// per user.
slime::data::SplitDataset MakeSplit(const std::string& workload,
                                    uint64_t seed, int64_t max_prefixes);

/// SLIME4Rec at the CLI defaults (N=32, d=32, L=2, contrastive on).
slime::models::ModelConfig ModelConfigFor(const slime::data::SplitDataset& split,
                                          uint64_t seed);
std::unique_ptr<slime::core::Slime4Rec> MakeModel(
    const slime::models::ModelConfig& config);

/// Fresh directories under the run's tmp dir, all removed at exit.
std::string MakeFreshDir(const std::string& parent, const std::string& tag);
void RemoveFreshDirs();

/// Checks one served list: exactly min(top_k, unseen items) distinct
/// items in [1, num_items], none of them in `history`.
bool ValidList(const std::vector<slime::serving::Recommendation>& items,
               int64_t num_items, const std::vector<int64_t>& history,
               std::string* why);
bool ValidList(const std::vector<slime::serving::Recommendation>& items,
               int64_t num_items, const std::unordered_set<int64_t>& seen,
               std::string* why);
/// True when both lists hold the same items with bit-identical scores.
bool SameList(const std::vector<slime::serving::Recommendation>& a,
              const std::vector<slime::serving::Recommendation>& b);

/// A started stateful fleet: 4 shards, R=2, durable state under a fresh
/// directory with the default group-commit sync, every user primed with
/// its training-region history.
struct Fleet {
  std::unique_ptr<slime::cluster::ClusterServer> server;
  std::vector<std::vector<int64_t>> histories;  // per user, as appended
  /// Per user: no read has been answered since the last append, so the
  /// next read cannot come from a session cache and must run the model.
  std::vector<char> fresh;
  int64_t num_items = 0;
};
Fleet StartFleet(const slime::data::SplitDataset& split,
                 const slime::models::ModelConfig& config,
                 const std::string& state_dir, slime::obs::Tracer* tracer,
                 slime::obs::MetricsRegistry* registry, Checks* checks);

/// Outcome of one open-loop segment against a fleet.
struct OpenLoopResult {
  double offered_rate = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t read_failures = 0;
  int64_t write_failures = 0;
  int64_t full_tier = 0;
  int64_t truncated_tier = 0;
  int64_t fallback_tier = 0;
  std::vector<double> read_ms;    // from scheduled arrival, answered reads
  std::vector<double> fresh_read_ms;  // the subset that had to run the model
  std::vector<double> write_ms;   // from scheduled arrival, acked writes
  std::vector<double> lag_ms;     // issue time minus scheduled time
  double final_lag_ms = 0;        // median lag over the last tenth
  double wall_seconds = 0;        // segment start to the last completion
  /// Client-thread CPU time spent inside the operations (time blocked on a
  /// lock or a disk barrier, or taken by the host, is not CPU time).
  int64_t op_cpu_nanos = 0;
  /// Client-thread wall time spent inside the operations, from issue to
  /// return: time blocked on a lock or a disk barrier counts, time spent
  /// waiting for the next arrival does not.
  int64_t op_busy_nanos = 0;
  int64_t validated = 0;  // answered reads whose lists were checked
  int64_t checked_against_direct = 0;
  int64_t failures() const { return read_failures + write_failures; }
  int64_t attempted() const { return reads + writes; }
  double achieved_rate() const {
    return wall_seconds > 0 ? attempted() / wall_seconds : 0.0;
  }
  /// Operations per second of client CPU: what one fully busy client
  /// thread would complete if it never blocked.
  double ops_per_cpu_second() const {
    return op_cpu_nanos > 0 ? attempted() / (op_cpu_nanos / 1e9) : 0.0;
  }
  /// Operations per second of client busy time: what one client thread
  /// kept busy would complete.
  double ops_per_busy_second() const {
    return op_busy_nanos > 0 ? attempted() / (op_busy_nanos / 1e9) : 0.0;
  }
};

/// Drives `fleet` open loop: Poisson arrivals at `rate` ops/s for
/// `seconds`, Zipf-skewed user keys, 90% ServeSession reads and 10%
/// AppendEvent writes (each a repeat interaction with an item already in
/// the user's history). Users are partitioned over `clients` threads so a
/// user's operations stay ordered and the benchmark knows each history
/// exactly (and which reads must miss the session cache). Every
/// `validate_every`-th answered read is checked on its client thread once
/// its latency is taken, and every `sample_every`-th full-model read is
/// compared after the segment with direct RecommendationService output
/// from `reference` (when set).
/// With `spans` set, each operation is recorded as a span on its client's
/// lane.
OpenLoopResult RunOpenLoop(Fleet* fleet, double rate, double seconds,
                           uint64_t seed, int clients,
                           slime::models::SequentialRecommender* reference,
                           int64_t validate_every, int64_t sample_every,
                           Checks* checks, SpanLog* spans);

/// Slime4Rec::Loss spelled out through the model's public calls, in the
/// same order (so the same dropout draws): EncodeLast, PredictLogits,
/// CrossEntropy, two more EncodeLast views, InfoNceLoss and the weighted
/// sum. With `spans` set, each call is a child span of the open span.
slime::autograd::Variable DecomposedLoss(slime::core::Slime4Rec* model,
                                         const slime::data::Batch& batch,
                                         SpanLog* spans);
/// The decomposed loss must be bit-identical to Slime4Rec::Loss when both
/// start from the same saved model Rng state. Leaves the Rng as it found it.
void CheckDecomposedLoss(slime::core::Slime4Rec* model,
                         const slime::data::Batch& batch, Checks* checks);
/// train::Evaluate's HR and NDCG must equal a RankingAccumulator
/// recomputation over ScoreAll on the same eval batches.
void CheckEvaluate(slime::core::Slime4Rec* model,
                   const slime::data::SplitDataset& split, bool test,
                   const slime::metrics::RankingMetrics& got, Checks* checks);

/// Client threads for the open loop: nproc - 1 (at least 1), so the
/// generator plus the driving thread never exceed nproc.
int ClientThreads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
