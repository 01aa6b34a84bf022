#include "models/sasrec.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace slime {
namespace models {

SasRec::SasRec(const ModelConfig& config) : SequentialRecommender(config) {
  const int64_t d = config.hidden_dim;
  const int64_t n = config.max_len;
  item_emb_ = RegisterModule(
      "item_emb",
      std::make_shared<nn::Embedding>(config.num_items + 1, d, &rng_));
  pos_emb_ = RegisterParameter(
      "pos_emb", autograd::Param(nn::NormalInit({n, d}, &rng_, 0.02f)));
  emb_norm_ = RegisterModule("emb_norm", std::make_shared<nn::LayerNorm>(d));
  emb_dropout_ = RegisterModule(
      "emb_dropout", std::make_shared<nn::Dropout>(config.emb_dropout));
  for (int64_t l = 0; l < config.num_layers; ++l) {
    Block b;
    b.attn = RegisterModule(
        "attn" + std::to_string(l),
        std::make_shared<nn::MultiHeadSelfAttention>(d, config.num_heads,
                                                     config.dropout, &rng_));
    b.attn_norm = RegisterModule("attn_norm" + std::to_string(l),
                                 std::make_shared<nn::LayerNorm>(d));
    b.ffn = RegisterModule(
        "ffn" + std::to_string(l),
        std::make_shared<nn::FeedForward>(d, config.dropout, &rng_));
    b.ffn_norm = RegisterModule("ffn_norm" + std::to_string(l),
                                std::make_shared<nn::LayerNorm>(d));
    blocks_.push_back(std::move(b));
  }
}

Tensor SasRec::PaddingMask(const std::vector<int64_t>& input_ids,
                           int64_t batch_size) const {
  const int64_t n = config_.max_len;
  Tensor mask({batch_size, n});
  float* p = mask.data();
  for (int64_t i = 0; i < batch_size * n; ++i) {
    p[i] = input_ids[i] == 0 ? -1e9f : 0.0f;
  }
  return mask;
}

autograd::Variable SasRec::Encode(const std::vector<int64_t>& input_ids,
                                  int64_t batch_size, Rng* rng) const {
  using autograd::Add;
  using autograd::Variable;
  const int64_t n = config_.max_len;
  SLIME_CHECK_EQ(static_cast<int64_t>(input_ids.size()), batch_size * n);
  Variable e = item_emb_->Forward(input_ids, {batch_size, n});
  e = Add(e, pos_emb_);
  e = emb_norm_->Forward(e);
  e = emb_dropout_->Forward(e, rng);
  const Tensor padding = PaddingMask(input_ids, batch_size);
  Variable h = e;
  for (const auto& b : blocks_) {
    Variable a = b.attn->Forward(h, /*causal=*/true, padding, rng);
    h = b.attn_norm->Forward(Add(h, a));
    Variable f = b.ffn->Forward(h, rng);
    h = b.ffn_norm->Forward(Add(h, f));
  }
  return h;
}

autograd::Variable SasRec::EncodeLast(const std::vector<int64_t>& input_ids,
                                      int64_t batch_size, Rng* rng) const {
  using autograd::Reshape;
  using autograd::Slice;
  const int64_t n = config_.max_len;
  autograd::Variable h = Encode(input_ids, batch_size, rng);
  return Reshape(Slice(h, 1, n - 1, n), {batch_size, config_.hidden_dim});
}

autograd::Variable SasRec::PredictLogits(const autograd::Variable& h) const {
  return autograd::MatMulTransB(h, item_emb_->weight());
}

autograd::Variable SasRec::PerPositionLoss(const data::Batch& batch) {
  using autograd::Reshape;
  const int64_t n = config_.max_len;
  // Position t predicts the item at t+1; the final position predicts the
  // held-out target. Padding positions contribute nothing.
  constexpr int64_t kIgnore = -100;
  std::vector<int64_t> labels(batch.size * n, kIgnore);
  for (int64_t i = 0; i < batch.size; ++i) {
    for (int64_t t = 0; t + 1 < n; ++t) {
      // Supervise only positions with real context: a padding position
      // "predicting" the first real item has nothing to condition on.
      if (batch.input_ids[i * n + t] == 0) continue;
      const int64_t next = batch.input_ids[i * n + t + 1];
      if (next != 0) labels[i * n + t] = next;
    }
    labels[i * n + n - 1] = batch.targets[i];
  }
  autograd::Variable h = Encode(batch.input_ids, batch.size, &rng_);
  autograd::Variable logits = autograd::MatMulTransB(
      Reshape(h, {batch.size * n, config_.hidden_dim}),
      item_emb_->weight());
  return autograd::CrossEntropy(logits, labels, kIgnore);
}

autograd::Variable SasRec::Loss(const data::Batch& batch) {
  if (config_.per_position_loss) return PerPositionLoss(batch);
  autograd::Variable h = EncodeLast(batch.input_ids, batch.size, &rng_);
  return autograd::CrossEntropy(PredictLogits(h), batch.targets);
}

Tensor SasRec::ScoreAll(const data::Batch& batch) const {
  autograd::Variable h = EncodeLast(batch.input_ids, batch.size, nullptr);
  return PredictLogits(h).value();
}

}  // namespace models
}  // namespace slime
