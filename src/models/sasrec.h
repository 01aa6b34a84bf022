#ifndef SLIME4REC_MODELS_SASREC_H_
#define SLIME4REC_MODELS_SASREC_H_

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

/// SASRec (Kang & McAuley, ICDM'18): causal multi-head self-attention
/// encoder trained with next-item cross-entropy at the last position,
/// scoring through the tied item-embedding matrix. Also the backbone that
/// CL4SRec, CoSeRec, DuoRec and ContrastVAE subclass.
class SasRec : public SequentialRecommender {
 public:
  explicit SasRec(const ModelConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) const override;
  std::string name() const override { return "SASRec"; }

  /// Encoder: embedding + L causal attention blocks; (B, N, d). Dropout
  /// draws from `rng` in training mode; a null `rng` turns it off.
  autograd::Variable Encode(const std::vector<int64_t>& input_ids,
                            int64_t batch_size, Rng* rng) const;

  /// Last-position representation (B, d).
  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size, Rng* rng) const;

  /// Tied-embedding logits (B, num_items + 1).
  autograd::Variable PredictLogits(const autograd::Variable& h) const;

  /// Cross-entropy over every valid position of the batch (the original
  /// SASRec objective); used when config.per_position_loss is set.
  autograd::Variable PerPositionLoss(const data::Batch& batch);

 protected:
  /// Additive key-padding mask (B, N): 0 for real items, -1e9 for pads.
  Tensor PaddingMask(const std::vector<int64_t>& input_ids,
                     int64_t batch_size) const;

  std::shared_ptr<nn::Embedding> item_emb_;
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

#endif  // SLIME4REC_MODELS_SASREC_H_
