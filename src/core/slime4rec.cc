#include "core/slime4rec.h"

#include "autograd/ops.h"
#include "core/contrastive.h"
#include "nn/init.h"

namespace slime {
namespace core {

Slime4Rec::Slime4Rec(const Slime4RecConfig& config)
    : models::SequentialRecommender(config), slime_config_(config) {
  SLIME_CHECK_MSG(!config.per_position_loss,
                  "the filter mixer is non-causal: a per-position loss "
                  "would leak each label into its own input (see "
                  "ModelConfig::per_position_loss)");
  const int64_t d = config.hidden_dim;
  const int64_t n = config.max_len;
  item_emb_ = RegisterModule(
      "item_emb",
      std::make_shared<nn::Embedding>(config.num_items + 1, d, &rng_));
  pos_emb_ = RegisterParameter(
      "pos_emb", autograd::Param(nn::NormalInit({n, d}, &rng_, 0.02f)));
  emb_norm_ = RegisterModule("emb_norm", std::make_shared<nn::LayerNorm>(d));
  emb_dropout_ = RegisterModule("emb_dropout",
                                std::make_shared<nn::Dropout>(
                                    config.emb_dropout));
  for (int64_t l = 0; l < config.num_layers; ++l) {
    blocks_.push_back(RegisterModule(
        "block" + std::to_string(l),
        std::make_shared<FilterMixerBlock>(n, d, config.num_layers, l,
                                           config.mixer, config.dropout,
                                           &rng_)));
  }
}

autograd::Variable Slime4Rec::Encode(const std::vector<int64_t>& input_ids,
                                     int64_t batch_size, Rng* rng) const {
  using autograd::Add;
  using autograd::AddConst;
  using autograd::Variable;
  const int64_t n = config_.max_len;
  SLIME_CHECK_EQ(static_cast<int64_t>(input_ids.size()), batch_size * n);
  // Eq. 9 + Eq. 10: item embedding + positional embedding, LN, dropout.
  Variable e = item_emb_->Forward(input_ids, {batch_size, n});
  e = Add(e, pos_emb_);  // (B,N,d) + (N,d) broadcasts
  e = emb_norm_->Forward(e);
  e = emb_dropout_->Forward(e, rng);
  Variable h = e;
  for (const auto& block : blocks_) {
    h = block->Forward(h, rng);
  }
  return h;
}

autograd::Variable Slime4Rec::EncodeLast(
    const std::vector<int64_t>& input_ids, int64_t batch_size,
    Rng* rng) const {
  using autograd::Reshape;
  using autograd::Slice;
  const int64_t n = config_.max_len;
  autograd::Variable h = Encode(input_ids, batch_size, rng);
  // Left padding places the most recent item at position N-1.
  return Reshape(Slice(h, 1, n - 1, n), {batch_size, config_.hidden_dim});
}

autograd::Variable Slime4Rec::PredictLogits(
    const autograd::Variable& h) const {
  return autograd::MatMulTransB(h, item_emb_->weight());
}

autograd::Variable Slime4Rec::Loss(const data::Batch& batch) {
  using autograd::Add;
  using autograd::CrossEntropy;
  using autograd::MulScalar;
  using autograd::Variable;
  // Main recommendation objective (Eqs. 31-32, softmax cross-entropy over
  // the full item set at the last position).
  Variable h = EncodeLast(batch.input_ids, batch.size);
  Variable loss = CrossEntropy(PredictLogits(h), batch.targets);
  if (!slime_config_.use_contrastive) return loss;

  // Unsupervised view h': the same sequences through the network again
  // (different dropout masks); supervised view h'_s: the same-target
  // positives (Eq. 35).
  SLIME_CHECK_MSG(!batch.positive_input_ids.empty(),
                  "contrastive training needs batch positives");
  Variable h_unsup = EncodeLast(batch.input_ids, batch.size);
  Variable h_sup = EncodeLast(batch.positive_input_ids, batch.size);
  Variable cl =
      InfoNceLoss(h_unsup, h_sup, config_.cl_temperature);  // Eqs. 33-34
  // Eq. 36: total objective.
  return Add(loss, MulScalar(cl, config_.cl_weight));
}

Tensor Slime4Rec::ScoreAll(const data::Batch& batch) const {
  autograd::Variable h = EncodeLast(batch.input_ids, batch.size, nullptr);
  return PredictLogits(h).value();
}

}  // namespace core
}  // namespace slime
