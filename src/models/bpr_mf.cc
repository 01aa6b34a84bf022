#include "models/bpr_mf.h"

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace models {

BprMf::BprMf(const ModelConfig& config) : SequentialRecommender(config) {
  SLIME_CHECK_GT(config.num_users, 0);
  user_emb_ = RegisterModule(
      "user_emb", std::make_shared<nn::Embedding>(config.num_users,
                                                  config.hidden_dim, &rng_));
  item_emb_ = RegisterModule(
      "item_emb", std::make_shared<nn::Embedding>(config.num_items + 1,
                                                  config.hidden_dim, &rng_));
}

autograd::Variable BprMf::Loss(const data::Batch& batch) {
  using autograd::AddScalar;
  using autograd::Log;
  using autograd::Mean;
  using autograd::Mul;
  using autograd::Neg;
  using autograd::Sigmoid;
  using autograd::Sub;
  using autograd::SumAxis;
  using autograd::Variable;
  // One uniformly sampled negative per positive (avoiding the positive).
  std::vector<int64_t> negatives(batch.size);
  for (int64_t i = 0; i < batch.size; ++i) {
    int64_t neg = rng_.UniformInt(1, config_.num_items);
    while (neg == batch.targets[i]) {
      neg = rng_.UniformInt(1, config_.num_items);
    }
    negatives[i] = neg;
  }
  Variable u = user_emb_->Forward(batch.user_ids, {batch.size});   // (B,d)
  Variable p = item_emb_->Forward(batch.targets, {batch.size});    // (B,d)
  Variable n = item_emb_->Forward(negatives, {batch.size});        // (B,d)
  Variable diff = SumAxis(Mul(u, Sub(p, n)), -1, false);           // (B)
  // -mean log sigmoid(diff); the epsilon guards log(0) for float32.
  return Neg(Mean(Log(AddScalar(Sigmoid(diff), 1e-10f))));
}

Tensor BprMf::ScoreAll(const data::Batch& batch) const {
  autograd::Variable u = user_emb_->Forward(batch.user_ids, {batch.size});
  return ops::MatMulTransB(u.value(), item_emb_->weight().value());
}

}  // namespace models
}  // namespace slime
