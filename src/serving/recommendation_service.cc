#include "serving/recommendation_service.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "common/macros.h"
#include "compute/thread_pool.h"
#include "data/batcher.h"

namespace slime {
namespace serving {

RecommendationService::RecommendationService(
    const models::SequentialRecommender* model)
    : model_(model) {
  SLIME_CHECK(model != nullptr);
}

std::vector<Recommendation> TopKFromScores(
    const float* row, int64_t num_items, int64_t k,
    const std::vector<bool>& excluded) {
  SLIME_CHECK_EQ(static_cast<int64_t>(excluded.size()), num_items + 1);
  std::vector<Recommendation> candidates;
  candidates.reserve(num_items);
  for (int64_t item = 1; item <= num_items; ++item) {
    if (excluded[item]) continue;
    candidates.push_back({item, row[item]});
  }
  const int64_t take = std::min<int64_t>(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + take,
                    candidates.end(),
                    [](const Recommendation& a, const Recommendation& b) {
                      return a.score > b.score ||
                             (a.score == b.score && a.item < b.item);
                    });
  candidates.resize(take);
  return candidates;
}

Status RecommendationService::Validate(
    const std::vector<std::vector<int64_t>>& histories,
    const RecommendOptions& options) const {
  if (options.top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive, got " +
                                   std::to_string(options.top_k));
  }
  const int64_t num_items = model_->config().num_items;
  for (size_t i = 0; i < histories.size(); ++i) {
    if (histories[i].empty()) {
      return Status::InvalidArgument("history " + std::to_string(i) +
                                     " is empty; cannot recommend without "
                                     "at least one interaction");
    }
    for (int64_t item : histories[i]) {
      if (item < 1 || item > num_items) {
        return Status::InvalidArgument(
            "history " + std::to_string(i) + " contains item id " +
            std::to_string(item) + " outside the catalogue [1, " +
            std::to_string(num_items) + "]");
      }
    }
  }
  return Status::OK();
}

Result<std::vector<std::vector<Recommendation>>>
RecommendationService::RecommendBatch(
    const std::vector<std::vector<int64_t>>& histories,
    const RecommendOptions& options) const {
  Result<PartialBatch> partial =
      RecommendBatchCancellable(histories, options, nullptr);
  if (!partial.ok()) return partial.status();
  return std::move(partial.value().lists);
}

Result<PartialBatch> RecommendationService::RecommendBatchCancellable(
    const std::vector<std::vector<int64_t>>& histories,
    const RecommendOptions& options, const CancelFn& cancelled) const {
  SLIME_RETURN_IF_ERROR(Validate(histories, options));
  PartialBatch out;
  if (histories.empty()) return out;  // an empty batch is a no-op
  out.lists.resize(histories.size());
  out.completed.assign(histories.size(), 0);

  const int64_t n = model_->config().max_len;
  const int64_t num_items = model_->config().num_items;

  data::Batch batch;
  batch.size = static_cast<int64_t>(histories.size());
  batch.max_len = n;
  for (const auto& history : histories) {
    batch.user_ids.push_back(0);   // models that use user ids need real ones;
    batch.targets.push_back(1);    // placeholder, unused by ScoreAll
    batch.raw_prefixes.push_back(history);
    const std::vector<int64_t> padded = data::PadTruncate(history, n);
    batch.input_ids.insert(batch.input_ids.end(), padded.begin(),
                           padded.end());
  }

  // The forward pass is the expensive step; skip it entirely when the
  // budget is already gone. (Cancellation cannot fire *inside* ScoreAll —
  // the model has no cancellation seam — so a single slow forward pass
  // overruns by up to one model latency. The ModelServer accounts for that
  // by checking the budget before attempting each ladder tier.)
  if (cancelled && cancelled()) {
    out.cancelled = true;
    return out;
  }

  const Tensor scores = model_->ScoreAll(batch);
  SLIME_CHECK_EQ(scores.size(0), batch.size);
  SLIME_CHECK_EQ(scores.size(1), num_items + 1);

  // Fan the per-user top-k extraction across the pool: each user writes one
  // preallocated slot, so the result order (and every ranking) is identical
  // at any thread count. The cancel predicate is re-checked per user; with
  // a FakeClock it only changes between phases, so either every user or no
  // user is skipped and the outcome stays thread-count-independent. Under a
  // real clock, skipping is best-effort (per-user, not per-chunk, so the
  // completed set is a prefix-free union of chunks — callers treat any
  // uncompleted slot as "degrade this user").
  std::atomic<bool> saw_cancel{false};
  compute::ParallelFor(
      0, static_cast<int64_t>(histories.size()),
      compute::GrainForWork(4 * num_items), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (cancelled && cancelled()) {
            saw_cancel.store(true, std::memory_order_relaxed);
            continue;
          }
          std::vector<bool> excluded(num_items + 1, false);
          if (options.exclude_seen) {
            for (int64_t item : histories[i]) excluded[item] = true;
          }
          for (int64_t item : options.exclude_items) {
            if (item >= 1 && item <= num_items) excluded[item] = true;
          }
          out.lists[i] = TopKFromScores(scores.data() + i * (num_items + 1),
                                        num_items, options.top_k, excluded);
          out.completed[i] = 1;
        }
      });
  out.cancelled = saw_cancel.load(std::memory_order_relaxed);
  return out;
}

}  // namespace serving
}  // namespace slime
