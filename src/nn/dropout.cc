#include "nn/dropout.h"

#include "autograd/ops.h"

namespace slime {
namespace nn {

autograd::Variable Dropout::Forward(const autograd::Variable& x,
                                    Rng* rng) const {
  if (rng == nullptr) return x;
  return autograd::Dropout(x, p_, training(), rng);
}

}  // namespace nn
}  // namespace slime
