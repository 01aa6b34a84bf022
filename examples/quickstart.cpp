// Quickstart: generate a small dataset, train SLIME4Rec, evaluate it, and
// produce top-K recommendations for one user — the 60-second tour of the
// public API.
//
//   ./examples/quickstart

#include <cstdio>

#include "core/slime4rec.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "train/trainer.h"

int main() {
  using namespace slime;

  // 1. Data: a synthetic e-commerce-style dataset (users interleave
  //    several periodic "interest tracks"; see data/synthetic.h), 5-core
  //    filtered and split leave-one-out.
  data::SyntheticConfig data_config = data::BeautySimConfig(/*scale=*/0.25);
  const data::InteractionDataset dataset =
      data::GenerateSynthetic(data_config).FilterMinInteractions(5);
  const data::SplitDataset split(dataset, /*max_prefixes_per_user=*/4);
  const data::DatasetStats stats = dataset.Stats();
  std::printf("dataset: %lld users, %lld items, %.1f avg interactions\n",
              static_cast<long long>(stats.num_users),
              static_cast<long long>(stats.num_items), stats.avg_length);

  // 2. Model: SLIME4Rec with the paper's mode-4 frequency ramp.
  core::Slime4RecConfig config;
  config.num_items = split.num_items();
  config.num_users = split.num_users();
  config.max_len = 32;
  config.hidden_dim = 32;
  config.num_layers = 2;
  config.mixer.alpha = 0.4;  // dynamic filter covers 40% of the spectrum
  config.use_contrastive = true;
  core::Slime4Rec model(config);
  std::printf("model: %s with %lld parameters\n", model.name().c_str(),
              static_cast<long long>(model.ParameterCount()));

  // 3. Train: Adam + early stopping on validation NDCG@10.
  train::TrainConfig tc;
  tc.max_epochs = 10;
  tc.patience = 3;
  tc.verbose = true;
  train::Trainer trainer(tc);
  const train::TrainResult result = trainer.Fit(&model, split).value();
  std::printf("\ntest metrics:  HR@5 %.4f  NDCG@5 %.4f  HR@10 %.4f  "
              "NDCG@10 %.4f  (best epoch %lld)\n",
              result.test.hr5, result.test.ndcg5, result.test.hr10,
              result.test.ndcg10, static_cast<long long>(result.best_epoch));

  // 4. Recommend: score every item for user 0's history and print the
  //    top 5.
  data::Batch batch;
  batch.size = 1;
  batch.max_len = config.max_len;
  batch.user_ids = {0};
  batch.targets = {split.test_targets()[0]};
  const std::vector<int64_t> history = split.TestInput(0);
  batch.raw_prefixes = {history};
  const std::vector<int64_t> padded =
      data::PadTruncate(history, config.max_len);
  batch.input_ids = padded;
  const Tensor scores = model.ScoreAll(batch);
  std::printf("\nuser 0 history (most recent last):");
  for (int64_t v : history) std::printf(" %lld", static_cast<long long>(v));
  std::printf("\ntop-5 recommendations:");
  std::vector<std::pair<float, int64_t>> ranked;
  for (int64_t item = 1; item <= split.num_items(); ++item) {
    ranked.emplace_back(scores[item], item);
  }
  std::partial_sort(ranked.begin(), ranked.begin() + 5, ranked.end(),
                    std::greater<>());
  for (int i = 0; i < 5; ++i) {
    std::printf(" %lld(%.2f)", static_cast<long long>(ranked[i].second),
                ranked[i].first);
  }
  std::printf("\nheld-out ground truth: %lld\n",
              static_cast<long long>(split.test_targets()[0]));
  return 0;
}
