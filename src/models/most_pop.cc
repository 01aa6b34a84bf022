#include "models/most_pop.h"

#include "autograd/variable.h"

namespace slime {
namespace models {

MostPop::MostPop(const ModelConfig& config)
    : SequentialRecommender(config),
      popularity_(config.num_items + 1, 0.0f) {}

void MostPop::Prepare(const data::SplitDataset& split) {
  popularity_.assign(config_.num_items + 1, 0.0f);
  for (const auto& region : split.train_region()) {
    for (int64_t item : region) {
      popularity_[item] += 1.0f;
    }
  }
  popularity_[0] = 0.0f;
}

int64_t MostPop::Frequency(int64_t item) const {
  if (item < 1 || item >= static_cast<int64_t>(popularity_.size())) return 0;
  return static_cast<int64_t>(popularity_[item]);
}

autograd::Variable MostPop::Loss(const data::Batch& batch) {
  // Nothing to learn; a constant zero keeps the trainer loop happy.
  (void)batch;
  return autograd::Constant(Tensor::Scalar(0.0f));
}

Tensor MostPop::ScoreAll(const data::Batch& batch) const {
  Tensor scores({batch.size, config_.num_items + 1});
  float* p = scores.data();
  for (int64_t i = 0; i < batch.size; ++i) {
    std::copy(popularity_.begin(), popularity_.end(),
              p + i * (config_.num_items + 1));
  }
  return scores;
}

}  // namespace models
}  // namespace slime
