#ifndef SLIME4REC_MODELS_BERT4REC_H_
#define SLIME4REC_MODELS_BERT4REC_H_

#include <memory>
#include <string>
#include <vector>

#include "models/recommender.h"
#include "nn/attention.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/feed_forward.h"
#include "nn/layer_norm.h"

namespace slime {
namespace models {

/// BERT4Rec (Sun et al., CIKM'19): bidirectional self-attention trained
/// with the Cloze (masked item) objective. Item id num_items+1 is the
/// [MASK] token. Inference appends [MASK] after the sequence and predicts
/// at that position.
class Bert4Rec : public SequentialRecommender {
 public:
  explicit Bert4Rec(const ModelConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) const override;
  std::string name() const override { return "BERT4Rec"; }

 private:
  autograd::Variable Encode(const std::vector<int64_t>& input_ids,
                            int64_t batch_size, Rng* rng) const;

  int64_t mask_token() const { return config_.num_items + 1; }

  float mask_prob_ = 0.3f;
  std::shared_ptr<nn::Embedding> item_emb_;  // vocab = num_items + 2
  autograd::Variable pos_emb_;
  std::shared_ptr<nn::LayerNorm> emb_norm_;
  std::shared_ptr<nn::Dropout> emb_dropout_;
  struct Block {
    std::shared_ptr<nn::MultiHeadSelfAttention> attn;
    std::shared_ptr<nn::LayerNorm> attn_norm;
    std::shared_ptr<nn::FeedForward> ffn;
    std::shared_ptr<nn::LayerNorm> ffn_norm;
  };
  std::vector<Block> blocks_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_BERT4REC_H_
