#ifndef SLIME4REC_TRAIN_TRAINER_H_
#define SLIME4REC_TRAIN_TRAINER_H_

#include <vector>

#include "common/status.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "metrics/ranking.h"
#include "models/recommender.h"
#include "train/config.h"

namespace slime {
namespace train {

/// Outcome of a training run.
struct TrainResult {
  /// Test-set metrics at the best-validation epoch.
  metrics::RankingMetrics test;
  /// Best validation metrics observed.
  metrics::RankingMetrics valid;
  int64_t best_epoch = 0;
  int64_t epochs_run = 0;
  double final_train_loss = 0.0;
  /// Divergence rollbacks consumed (0 for a healthy run).
  int64_t rollbacks = 0;
};

/// Evaluates `model` with the full-ranking leave-one-out protocol on the
/// validation (`test = false`) or test split.
metrics::RankingMetrics Evaluate(const models::SequentialRecommender* model,
                                 const data::SplitDataset& split, bool test,
                                 int64_t batch_size = 256);

/// Fixed canary request set for serving validation (ModelServer hot
/// reload): the training-region histories of the `k` users with the
/// longest training regions, ties broken by lower user id. Deterministic
/// for a given split — the same canaries gate every reload, so a
/// validation pass/fail is reproducible. Long histories are chosen
/// deliberately: they exercise the truncation path and every position of
/// the model's input window.
std::vector<std::vector<int64_t>> ExportCanarySet(
    const data::SplitDataset& split, int64_t k);

/// Orchestrates training: shuffled mini-batches, Adam, gradient clipping,
/// per-epoch validation, early stopping with best-parameter restore, and a
/// final test evaluation. The same trainer drives all eleven models.
///
/// Fault tolerance (see TrainConfig): with `checkpoint_dir` set, a full
/// TrainState snapshot is written crash-safely after qualifying epochs and
/// a killed run resumed via `resume_from` replays the remaining epochs
/// bit-for-bit. A non-finite loss or gradient triggers a rollback to the
/// last completed epoch with the learning rate halved; after
/// `max_rollbacks` failures Fit returns Status::Aborted. Snapshot I/O
/// errors are returned, never swallowed.
class Trainer {
 public:
  explicit Trainer(TrainConfig config) : config_(config) {}

  Result<TrainResult> Fit(models::SequentialRecommender* model,
                          const data::SplitDataset& split);

  const TrainConfig& config() const { return config_; }

 private:
  TrainConfig config_;
};

}  // namespace train
}  // namespace slime

#endif  // SLIME4REC_TRAIN_TRAINER_H_
