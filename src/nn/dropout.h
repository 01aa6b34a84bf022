#ifndef SLIME4REC_NN_DROPOUT_H_
#define SLIME4REC_NN_DROPOUT_H_

#include "nn/module.h"

namespace slime {
namespace nn {

/// Inverted dropout layer; active only while the module is in training
/// mode and the caller supplies an RNG (the model's own, so whole-model
/// runs stay reproducible). A null `rng` makes Forward the identity in
/// either mode: that is how inference turns dropout off.
class Dropout : public Module {
 public:
  explicit Dropout(float p) : p_(p) {}

  autograd::Variable Forward(const autograd::Variable& x, Rng* rng) const;

  float p() const { return p_; }

 private:
  float p_;
};

}  // namespace nn
}  // namespace slime

#endif  // SLIME4REC_NN_DROPOUT_H_
