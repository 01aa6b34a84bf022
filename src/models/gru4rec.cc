#include "models/gru4rec.h"

#include "autograd/ops.h"

namespace slime {
namespace models {

Gru4Rec::Gru4Rec(const ModelConfig& config) : SequentialRecommender(config) {
  const int64_t d = config.hidden_dim;
  item_emb_ = RegisterModule(
      "item_emb",
      std::make_shared<nn::Embedding>(config.num_items + 1, d, &rng_));
  emb_dropout_ = RegisterModule(
      "emb_dropout", std::make_shared<nn::Dropout>(config.emb_dropout));
  gru_ = RegisterModule("gru", std::make_shared<nn::Gru>(d, d, &rng_));
}

autograd::Variable Gru4Rec::EncodeLast(const std::vector<int64_t>& input_ids,
                                       int64_t batch_size, Rng* rng) const {
  autograd::Variable e =
      item_emb_->Forward(input_ids, {batch_size, config_.max_len});
  e = emb_dropout_->Forward(e, rng);
  return gru_->ForwardLast(e);
}

autograd::Variable Gru4Rec::Loss(const data::Batch& batch) {
  autograd::Variable h = EncodeLast(batch.input_ids, batch.size, &rng_);
  autograd::Variable logits = autograd::MatMulTransB(h, item_emb_->weight());
  return autograd::CrossEntropy(logits, batch.targets);
}

Tensor Gru4Rec::ScoreAll(const data::Batch& batch) const {
  autograd::Variable h = EncodeLast(batch.input_ids, batch.size, nullptr);
  return autograd::MatMulTransB(h, item_emb_->weight()).value();
}

}  // namespace models
}  // namespace slime
