#ifndef SLIME4REC_MODELS_BPR_MF_H_
#define SLIME4REC_MODELS_BPR_MF_H_

#include <memory>
#include <string>

#include "models/recommender.h"
#include "nn/embedding.h"

namespace slime {
namespace models {

/// BPR-MF (Rendle et al., 2012): non-sequential matrix factorisation
/// trained with the pairwise Bayesian Personalised Ranking loss
///   -log sigmoid(x_u . (v_pos - v_neg)),
/// with one uniformly sampled negative per positive. The paper's weakest
/// baseline; it ignores all sequential structure.
class BprMf : public SequentialRecommender {
 public:
  explicit BprMf(const ModelConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) const override;
  std::string name() const override { return "BPR-MF"; }

 private:
  std::shared_ptr<nn::Embedding> user_emb_;
  std::shared_ptr<nn::Embedding> item_emb_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_BPR_MF_H_
