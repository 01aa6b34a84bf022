#ifndef SLIME4REC_CORE_SLIME4REC_H_
#define SLIME4REC_CORE_SLIME4REC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/filter_mixer.h"
#include "models/recommender.h"
#include "nn/embedding.h"

namespace slime {
namespace core {

/// Full configuration of SLIME4Rec: the shared sequential-model options
/// plus the filter-mixer options and the contrastive-learning switch.
struct Slime4RecConfig : models::ModelConfig {
  FilterMixerOptions mixer;
  /// Enables the contrastive objective of Eqs. 33-36; disabling yields the
  /// SLIME4Rec_w/oC ablation variant.
  bool use_contrastive = true;
};

/// The paper's model (Sec. III): an attention-free transformer encoder
/// whose self-attention sublayer is replaced by the slide filter mixer,
/// trained with next-item cross-entropy plus the DuoRec-style contrastive
/// regulariser (unsupervised dropout views + supervised same-target
/// positives, in-batch negatives).
class Slime4Rec : public models::SequentialRecommender {
 public:
  explicit Slime4Rec(const Slime4RecConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) const override;
  std::string name() const override { return "SLIME4Rec"; }
  bool needs_positives() const override {
    return slime_config_.use_contrastive;
  }

  /// Runs the embedding layer (Eqs. 9-10) and the L filter-mixer blocks;
  /// `input_ids` is a flat (batch_size * max_len) id buffer. Returns the
  /// full hidden states H^L of shape (B, N, d). Dropout draws from `rng`
  /// while the model is in training mode; a null `rng` turns it off.
  autograd::Variable Encode(const std::vector<int64_t>& input_ids,
                            int64_t batch_size, Rng* rng) const;

  /// Last-position user representation h_t^L, shape (B, d).
  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size, Rng* rng) const;

  /// The training forms: Encode/EncodeLast drawing dropout from the
  /// model's own RNG, exactly as Loss() does.
  autograd::Variable Encode(const std::vector<int64_t>& input_ids,
                            int64_t batch_size) {
    return Encode(input_ids, batch_size, &rng_);
  }
  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size) {
    return EncodeLast(input_ids, batch_size, &rng_);
  }

  /// Recommendation logits over the item vocabulary (Eq. 31, pre-softmax):
  /// (B, num_items + 1) sharing the item embedding matrix.
  autograd::Variable PredictLogits(const autograd::Variable& h) const;

  const Slime4RecConfig& slime_config() const { return slime_config_; }
  const std::vector<std::shared_ptr<FilterMixerBlock>>& blocks() const {
    return blocks_;
  }
  const nn::Embedding& item_embedding() const { return *item_emb_; }

 private:
  Slime4RecConfig slime_config_;
  std::shared_ptr<nn::Embedding> item_emb_;
  autograd::Variable pos_emb_;  // (N, d)
  std::shared_ptr<nn::LayerNorm> emb_norm_;
  std::shared_ptr<nn::Dropout> emb_dropout_;
  std::vector<std::shared_ptr<FilterMixerBlock>> blocks_;
};

}  // namespace core
}  // namespace slime

#endif  // SLIME4REC_CORE_SLIME4REC_H_
