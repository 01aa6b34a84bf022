#ifndef SLIME4REC_SERVING_RECOMMENDATION_SERVICE_H_
#define SLIME4REC_SERVING_RECOMMENDATION_SERVICE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "models/recommender.h"

namespace slime {
namespace serving {

/// One ranked recommendation.
struct Recommendation {
  int64_t item = 0;
  float score = 0.0f;
};

/// Options for a recommendation request.
struct RecommendOptions {
  int64_t top_k = 10;
  /// Drop items that already appear in the user's history (the common
  /// serving default; evaluation benches do NOT filter, matching the
  /// paper's protocol).
  bool exclude_seen = true;
  /// Optional explicit blocklist (e.g. out-of-stock items).
  std::vector<int64_t> exclude_items;
};

/// Cooperative cancellation predicate: returns true once the caller wants
/// the batch abandoned (typically "deadline passed"). Evaluated from
/// multiple compute-pool threads concurrently, so it must be thread-safe
/// and cheap; a read of an atomic/FakeClock qualifies.
using CancelFn = std::function<bool()>;

/// Result of a cancellable batch call: per-user ranked lists plus which
/// users actually completed before cancellation fired.
struct PartialBatch {
  /// One entry per requested history; `lists[i]` is meaningful only where
  /// `completed[i]` is 1 (skipped users hold an empty vector).
  std::vector<std::vector<Recommendation>> lists;
  std::vector<char> completed;
  /// True if the cancel predicate was observed true at any checkpoint.
  bool cancelled = false;
};

/// Serving wrapper over any trained SequentialRecommender: takes raw user
/// histories, handles padding/truncation and batching, and returns ranked
/// top-K lists. It only calls the model's const ScoreAll, which runs
/// without dropout in either training mode.
///
/// Requests are untrusted input: malformed histories (item ids outside
/// [1, num_items], empty histories) and non-positive top_k are rejected
/// with Status::InvalidArgument rather than crossing into the model, where
/// an out-of-range id would index out of bounds. An empty batch is valid
/// and yields an empty result.
///
/// Thread-safety contract:
///  - A call parallelises *internally* across the compute pool
///    (ScoreAll's kernels plus the per-user top-K extraction), with the
///    deterministic work split of compute::ParallelFor, so results are
///    bit-identical at any thread count.
///  - Any number of calls may run concurrently, on one service or on
///    several over the same model: the service holds the model as const
///    and scoring writes no model state. Each call returns what it would
///    return alone. What must not overlap a call is a write to the model
///    (a training step, LoadCheckpoint); ModelServer never writes a live
///    model, it swaps in a new one.
///
/// The model pointer is non-owning; the caller keeps it alive across calls.
class RecommendationService {
 public:
  explicit RecommendationService(const models::SequentialRecommender* model);

  /// Top-K for each user history (chronological item ids, 1-based); one
  /// ranked list per history.
  Result<std::vector<std::vector<Recommendation>>> RecommendBatch(
      const std::vector<std::vector<int64_t>>& histories,
      const RecommendOptions& options = {}) const;

  /// RecommendBatch with a cooperative deadline: `cancelled` is checked
  /// before the model forward pass and again before each user's top-K
  /// extraction. Once it returns true, remaining users are skipped (their
  /// `completed` slot stays 0) and the result is returned with
  /// `cancelled = true` — the caller decides whether partial results are
  /// acceptable or the request degrades to a cheaper tier. Validation
  /// failures still surface as a non-OK Result; cancellation does not.
  /// A null `cancelled` behaves exactly like RecommendBatch.
  Result<PartialBatch> RecommendBatchCancellable(
      const std::vector<std::vector<int64_t>>& histories,
      const RecommendOptions& options, const CancelFn& cancelled) const;

  int64_t num_items() const { return model_->config().num_items; }

 private:
  /// Validates one request; non-OK for any malformed history or option.
  Status Validate(const std::vector<std::vector<int64_t>>& histories,
                  const RecommendOptions& options) const;

  const models::SequentialRecommender* model_;
};

/// Standalone helper: top-k (item, score) pairs from one score row
/// (column 0 = padding is always excluded), honouring an exclusion mask.
/// Equal scores rank the lower item id first — unconditionally, so a
/// ranking never depends on iteration order, thread count, or the
/// std::partial_sort implementation.
std::vector<Recommendation> TopKFromScores(const float* row,
                                           int64_t num_items, int64_t k,
                                           const std::vector<bool>& excluded);

}  // namespace serving
}  // namespace slime

#endif  // SLIME4REC_SERVING_RECOMMENDATION_SERVICE_H_
