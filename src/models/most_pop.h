#ifndef SLIME4REC_MODELS_MOST_POP_H_
#define SLIME4REC_MODELS_MOST_POP_H_

#include <string>
#include <vector>

#include "models/recommender.h"

namespace slime {
namespace models {

/// Most-Popular: a parameter-free reference that scores every item by its
/// training-set frequency. Not part of the paper's Table II (we keep
/// AllModelNames() at the paper's eleven), but an indispensable sanity
/// floor — any sequential model that cannot beat popularity has learned
/// nothing.
class MostPop : public SequentialRecommender {
 public:
  explicit MostPop(const ModelConfig& config);

  void Prepare(const data::SplitDataset& split) override;

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) const override;
  std::string name() const override { return "MostPop"; }

  /// Training-region frequency of `item` (0 before Prepare()).
  int64_t Frequency(int64_t item) const;

 private:
  std::vector<float> popularity_;  // (num_items + 1)
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_MOST_POP_H_
