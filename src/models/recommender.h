#ifndef SLIME4REC_MODELS_RECOMMENDER_H_
#define SLIME4REC_MODELS_RECOMMENDER_H_

#include <string>

#include "autograd/variable.h"
#include "data/batcher.h"
#include "nn/module.h"

namespace slime {
namespace models {

/// Hyper-parameters shared by every sequential model in the zoo. Slime4Rec
/// extends this with its filter options (core/slime4rec.h).
struct ModelConfig {
  int64_t num_items = 0;   // real items; ids 1..num_items, 0 = padding
  int64_t num_users = 0;   // needed by BPR-MF and Caser
  int64_t max_len = 32;    // N, the truncation length (Eq. 1)
  int64_t hidden_dim = 32;  // d
  int64_t num_layers = 2;   // L
  int64_t num_heads = 2;    // attention heads (SASRec family)
  float dropout = 0.2f;
  float emb_dropout = 0.2f;
  /// Contrastive-learning strength lambda (Eq. 36) and InfoNCE temperature.
  float cl_weight = 0.1f;
  float cl_temperature = 0.5f;
  /// Train with cross-entropy at every sequence position (SASRec's
  /// original sequence-to-sequence objective) instead of the last position
  /// only. Only valid for causal encoders: the filter mixer (and FMLP) mix
  /// the whole sequence in the frequency domain, so a per-position loss
  /// would leak each label into its own input representation.
  bool per_position_loss = false;
  uint64_t seed = 7;
};

/// Common interface of the eleven models in Table II. Training code builds
/// batches, calls Loss() (which constructs an autograd graph using the
/// model's internal RNG for dropout/augmentation), backpropagates, and
/// steps an optimizer over Parameters(). Evaluation and serving call
/// ScoreAll(), which is const: it runs the encoder without dropout,
/// whatever training() says, and draws nothing from the RNG.
///
/// Concurrency: ScoreAll writes no model state, so any number of threads
/// may score one model at once. Loss() and anything that changes the
/// parameters (an optimizer step, LoadCheckpoint) must not overlap with
/// scoring; the serving tier holds models as `const` and never does either.
class SequentialRecommender : public nn::Module {
 public:
  explicit SequentialRecommender(const ModelConfig& config)
      : config_(config), rng_(config.seed) {}

  /// The training objective for one batch (a scalar Variable).
  virtual autograd::Variable Loss(const data::Batch& batch) = 0;

  /// Scores every item for each sequence in the batch:
  /// (B, num_items + 1), column 0 being the padding pseudo-item.
  virtual Tensor ScoreAll(const data::Batch& batch) const = 0;

  virtual std::string name() const = 0;

  /// Hook invoked by the trainer before the first epoch with the full
  /// training split; models that precompute dataset-level structures
  /// (e.g. CoSeRec's item-correlation table) override this.
  virtual void Prepare(const data::SplitDataset& split) { (void)split; }

  /// Whether Loss() consumes batch.positive_input_ids (DuoRec-style
  /// supervised contrastive positives); the trainer asks this to decide
  /// whether the batcher must materialise positives.
  virtual bool needs_positives() const { return false; }

  const ModelConfig& config() const { return config_; }
  Rng* rng() { return &rng_; }

 protected:
  ModelConfig config_;
  Rng rng_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_RECOMMENDER_H_
