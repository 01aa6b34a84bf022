#include "models/duorec.h"

#include "autograd/ops.h"
#include "core/contrastive.h"

namespace slime {
namespace models {

autograd::Variable DuoRec::Loss(const data::Batch& batch) {
  using autograd::Add;
  using autograd::MulScalar;
  using autograd::Variable;
  Variable h = EncodeLast(batch.input_ids, batch.size, &rng_);
  Variable rec = autograd::CrossEntropy(PredictLogits(h), batch.targets);
  SLIME_CHECK_MSG(!batch.positive_input_ids.empty(),
                  "DuoRec needs batch positives");
  // Unsupervised dropout view + supervised same-target view.
  Variable h_unsup = EncodeLast(batch.input_ids, batch.size, &rng_);
  Variable h_sup = EncodeLast(batch.positive_input_ids, batch.size, &rng_);
  Variable cl = core::InfoNceLoss(h_unsup, h_sup, config_.cl_temperature);
  return Add(rec, MulScalar(cl, config_.cl_weight));
}

}  // namespace models
}  // namespace slime
