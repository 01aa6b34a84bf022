#include "models/bert4rec.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace slime {
namespace models {

Bert4Rec::Bert4Rec(const ModelConfig& config)
    : SequentialRecommender(config) {
  const int64_t d = config.hidden_dim;
  const int64_t n = config.max_len;
  // Vocabulary: 0 pad, 1..num_items real, num_items+1 [MASK].
  item_emb_ = RegisterModule(
      "item_emb",
      std::make_shared<nn::Embedding>(config.num_items + 2, d, &rng_));
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

autograd::Variable Bert4Rec::Encode(const std::vector<int64_t>& input_ids,
                                    int64_t batch_size, Rng* rng) const {
  using autograd::Add;
  using autograd::Variable;
  const int64_t n = config_.max_len;
  Variable e = item_emb_->Forward(input_ids, {batch_size, n});
  e = Add(e, pos_emb_);
  e = emb_norm_->Forward(e);
  e = emb_dropout_->Forward(e, rng);
  Tensor padding({batch_size, n});
  for (int64_t i = 0; i < batch_size * n; ++i) {
    padding.data()[i] = input_ids[i] == 0 ? -1e9f : 0.0f;
  }
  Variable h = e;
  for (const auto& b : blocks_) {
    // Bidirectional: causal = false.
    Variable a = b.attn->Forward(h, /*causal=*/false, padding, rng);
    h = b.attn_norm->Forward(Add(h, a));
    Variable f = b.ffn->Forward(h, rng);
    h = b.ffn_norm->Forward(Add(h, f));
  }
  return h;
}

autograd::Variable Bert4Rec::Loss(const data::Batch& batch) {
  using autograd::CrossEntropy;
  using autograd::Reshape;
  using autograd::Variable;
  const int64_t n = config_.max_len;
  constexpr int64_t kIgnore = -100;
  // Cloze training over the full sequence (prefix + target item): mask a
  // random subset of the real positions, always including the final one so
  // the objective stays aligned with next-item evaluation.
  std::vector<int64_t> masked(batch.size * n, 0);
  std::vector<int64_t> labels(batch.size * n, kIgnore);
  for (int64_t i = 0; i < batch.size; ++i) {
    std::vector<int64_t> full = batch.raw_prefixes[i];
    full.push_back(batch.targets[i]);
    const std::vector<int64_t> padded = data::PadTruncate(full, n);
    for (int64_t t = 0; t < n; ++t) {
      const int64_t id = padded[t];
      const int64_t idx = i * n + t;
      if (id == 0) continue;
      const bool is_last = t == n - 1;
      if (is_last || rng_.Bernoulli(mask_prob_)) {
        masked[idx] = mask_token();
        labels[idx] = id;
      } else {
        masked[idx] = id;
      }
    }
  }
  Variable h = Encode(masked, batch.size, &rng_);  // (B, N, d)
  Variable logits = autograd::MatMulTransB(
      Reshape(h, {batch.size * n, config_.hidden_dim}),
      item_emb_->weight());  // (B*N, V+2)
  return CrossEntropy(logits, labels, kIgnore);
}

Tensor Bert4Rec::ScoreAll(const data::Batch& batch) const {
  const int64_t n = config_.max_len;
  // Append [MASK] to each sequence and predict at the final position.
  std::vector<int64_t> masked(batch.size * n, 0);
  for (int64_t i = 0; i < batch.size; ++i) {
    std::vector<int64_t> input = batch.raw_prefixes[i];
    input.push_back(mask_token());
    const std::vector<int64_t> padded = data::PadTruncate(input, n);
    for (int64_t t = 0; t < n; ++t) masked[i * n + t] = padded[t];
  }
  autograd::Variable h = Encode(masked, batch.size, nullptr);
  autograd::Variable last = autograd::Reshape(
      autograd::Slice(h, 1, n - 1, n), {batch.size, config_.hidden_dim});
  const Tensor full =
      autograd::MatMulTransB(last, item_emb_->weight()).value();
  // Drop the [MASK] column: return (B, num_items + 1).
  Tensor out({batch.size, config_.num_items + 1});
  for (int64_t i = 0; i < batch.size; ++i) {
    const float* src = full.data() + i * (config_.num_items + 2);
    float* dst = out.data() + i * (config_.num_items + 1);
    std::copy(src, src + config_.num_items + 1, dst);
  }
  return out;
}

}  // namespace models
}  // namespace slime
