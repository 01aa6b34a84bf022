#ifndef SLIME4REC_MODELS_GRU4REC_H_
#define SLIME4REC_MODELS_GRU4REC_H_

#include <memory>
#include <string>

#include "models/recommender.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/gru.h"

namespace slime {
namespace models {

/// GRU4Rec (Hidasi et al. / Jannach & Ludewig): item embeddings fed through
/// a GRU; the final hidden state represents the user and scores items via
/// the tied embedding matrix.
class Gru4Rec : public SequentialRecommender {
 public:
  explicit Gru4Rec(const ModelConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) const override;
  std::string name() const override { return "GRU4Rec"; }

 private:
  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size, Rng* rng) const;

  std::shared_ptr<nn::Embedding> item_emb_;
  std::shared_ptr<nn::Dropout> emb_dropout_;
  std::shared_ptr<nn::Gru> gru_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_GRU4REC_H_
