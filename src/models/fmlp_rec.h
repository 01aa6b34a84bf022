#ifndef SLIME4REC_MODELS_FMLP_REC_H_
#define SLIME4REC_MODELS_FMLP_REC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/filter_mixer.h"
#include "models/recommender.h"
#include "nn/embedding.h"

namespace slime {
namespace models {

/// FMLP-Rec (Zhou et al., WWW'22): the all-MLP frequency baseline. Each
/// block multiplies the full spectrum by one global learnable filter (no
/// frequency windows, no static branch — the alpha = 1 degenerate case of
/// SLIME4Rec's mixer, as the paper notes below Eq. 20) followed by the
/// point-wise FFN with standard residual connections.
class FmlpRec : public SequentialRecommender {
 public:
  explicit FmlpRec(const ModelConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) const override;
  std::string name() const override { return "FMLP-Rec"; }

  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size, Rng* rng) const;

 private:
  std::shared_ptr<nn::Embedding> item_emb_;
  autograd::Variable pos_emb_;
  std::shared_ptr<nn::LayerNorm> emb_norm_;
  std::shared_ptr<nn::Dropout> emb_dropout_;
  struct Block {
    std::shared_ptr<core::FilterMixerLayer> filter;
    std::shared_ptr<nn::FeedForward> ffn;
    std::shared_ptr<nn::LayerNorm> ffn_norm;
  };
  std::vector<Block> blocks_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_FMLP_REC_H_
