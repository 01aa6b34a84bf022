#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "io/checkpoint.h"
#include "io/env.h"
#include "observability/telemetry.h"
#include "optim/adam.h"
#include "serving/clock.h"
#include "tensor/tensor_ops.h"
#include "train/train_state.h"

namespace slime {
namespace train {
namespace {

bool GradsFinite(const std::vector<autograd::Variable>& params) {
  for (const auto& p : params) {
    if (p.has_grad() && !ops::AllFinite(p.grad())) return false;
  }
  return true;
}

std::vector<Tensor> CloneAll(const std::vector<Tensor>& tensors) {
  std::vector<Tensor> out;
  out.reserve(tensors.size());
  for (const Tensor& t : tensors) out.push_back(t.Clone());
  return out;
}

}  // namespace

metrics::RankingMetrics Evaluate(const models::SequentialRecommender* model,
                                 const data::SplitDataset& split, bool test,
                                 int64_t batch_size) {
  metrics::RankingAccumulator acc;
  for (const data::Batch& batch : data::MakeEvalBatches(
           split, test, batch_size, model->config().max_len)) {
    const Tensor scores = model->ScoreAll(batch);
    acc.Add(scores, batch.targets);
  }
  return metrics::RankingMetrics::From(acc);
}

std::vector<std::vector<int64_t>> ExportCanarySet(
    const data::SplitDataset& split, int64_t k) {
  std::vector<int64_t> users(split.num_users());
  for (int64_t u = 0; u < split.num_users(); ++u) users[u] = u;
  std::sort(users.begin(), users.end(), [&](int64_t a, int64_t b) {
    const size_t la = split.train_region()[a].size();
    const size_t lb = split.train_region()[b].size();
    return la > lb || (la == lb && a < b);
  });
  const int64_t take = std::min<int64_t>(k, split.num_users());
  std::vector<std::vector<int64_t>> canaries;
  canaries.reserve(take);
  for (int64_t i = 0; i < take; ++i) {
    canaries.push_back(split.train_region()[users[i]]);
  }
  return canaries;
}

Result<TrainResult> Trainer::Fit(models::SequentialRecommender* model,
                                 const data::SplitDataset& split) {
  io::Env* env = config_.env != nullptr ? config_.env : io::Env::Default();
  serving::Clock* clock =
      config_.clock != nullptr ? config_.clock : serving::Clock::Default();
  // Structured telemetry replaces the old bare printf lines: every record
  // goes to the sink (which echoes the identical console text when asked)
  // so training progress is machine-readable without changing stdout.
  obs::TrainingTelemetry local_telemetry(config_.verbose);
  obs::TrainingTelemetry* telemetry = config_.telemetry != nullptr
                                          ? config_.telemetry
                                          : &local_telemetry;
  model->Prepare(split);
  Rng batch_rng(config_.seed);
  data::TrainBatcher batcher(&split, config_.batch_size,
                             model->config().max_len,
                             model->needs_positives(), &batch_rng);
  optim::Adam optimizer(model->Parameters(), {.lr = config_.lr});

  TrainResult result;
  double best_valid = -1.0;
  int64_t since_best = 0;
  // Snapshot of the best-validation parameters (deep copies).
  std::vector<Tensor> best_params;
  float base_lr = config_.lr;
  int64_t rollbacks = 0;
  int64_t start_epoch = 1;

  // Captures everything the loop carries across epochs into a TrainState
  // (all tensors deep-copied, so the snapshot stays frozen while training
  // keeps mutating the live model).
  const auto capture = [&](int64_t epoch) {
    TrainState s;
    s.epoch = epoch;
    s.base_lr = base_lr;
    s.rollbacks = rollbacks;
    s.best_valid = best_valid;
    s.best_epoch = result.best_epoch;
    s.since_best = since_best;
    s.final_train_loss = result.final_train_loss;
    s.best_metrics = result.valid;
    s.batch_rng = batch_rng.state();
    s.model_rng = model->rng()->state();
    s.batch_order = batcher.order();
    for (const auto& [name, variable] : model->NamedParameters()) {
      s.params.emplace_back(name, variable.value().Clone());
    }
    s.adam_step = optimizer.step_count();
    s.adam_m = CloneAll(optimizer.first_moments());
    s.adam_v = CloneAll(optimizer.second_moments());
    s.best_params = CloneAll(best_params);
    return s;
  };

  // Restores a captured TrainState into the live model/optimizer/RNGs and
  // the loop trackers. Validates names/shapes so a snapshot from a
  // different model or split is rejected, not silently half-applied.
  const auto apply = [&](const TrainState& s) -> Status {
    auto named = model->NamedParameters();
    std::map<std::string, autograd::Variable*> by_name;
    for (auto& [name, variable] : named) by_name[name] = &variable;
    if (s.params.size() != by_name.size()) {
      return Status::InvalidArgument(
          "train state has " + std::to_string(s.params.size()) +
          " parameters, model has " + std::to_string(by_name.size()));
    }
    for (const auto& [name, tensor] : s.params) {
      const auto it = by_name.find(name);
      if (it == by_name.end()) {
        return Status::InvalidArgument("model has no parameter '" + name +
                                       "'");
      }
      if (it->second->value().shape() != tensor.shape()) {
        return Status::InvalidArgument(
            "shape mismatch for '" + name + "': train state " +
            tensor.ShapeString() + " vs model " +
            it->second->value().ShapeString());
      }
    }
    const auto model_params = model->Parameters();
    if (!s.best_params.empty() &&
        s.best_params.size() != model_params.size()) {
      return Status::InvalidArgument(
          "train state best-parameter count " +
          std::to_string(s.best_params.size()) + " does not match model (" +
          std::to_string(model_params.size()) + ")");
    }
    SLIME_RETURN_IF_ERROR(optimizer.RestoreState(
        s.adam_step, CloneAll(s.adam_m), CloneAll(s.adam_v)));
    SLIME_RETURN_IF_ERROR(batcher.RestoreOrder(s.batch_order));
    for (const auto& [name, tensor] : s.params) {
      by_name[name]->mutable_value() = tensor.Clone();
    }
    batch_rng.set_state(s.batch_rng);
    model->rng()->set_state(s.model_rng);
    best_params = CloneAll(s.best_params);
    best_valid = s.best_valid;
    since_best = s.since_best;
    base_lr = s.base_lr;
    rollbacks = s.rollbacks;
    result.best_epoch = s.best_epoch;
    result.valid = s.best_metrics;
    result.final_train_loss = s.final_train_loss;
    result.epochs_run = s.epoch;
    result.rollbacks = s.rollbacks;
    return Status::OK();
  };

  // Last-good state for divergence rollback: the initial state before the
  // first epoch, then the end of every completed epoch.
  TrainState last_good;
  if (!config_.resume_from.empty()) {
    const std::string path = ResolveResumePath(config_.resume_from, env);
    Result<TrainState> loaded = LoadTrainState(path, env);
    if (!loaded.ok()) return loaded.status();
    last_good = std::move(loaded).value();
    SLIME_RETURN_IF_ERROR(apply(last_good));
    start_epoch = last_good.epoch + 1;
    telemetry->OnResume({model->name(), path, last_good.epoch,
                         last_good.best_valid});
  } else {
    last_good = capture(0);
  }

  for (int64_t epoch = start_epoch; epoch <= config_.max_epochs; ++epoch) {
    const int64_t epoch_start_nanos = clock->NowNanos();
    // Per-epoch learning-rate schedule: linear warmup then exponential
    // decay, on top of the (rollback-halvable) base rate.
    float lr = base_lr;
    if (config_.warmup_epochs > 0 && epoch <= config_.warmup_epochs) {
      lr *= static_cast<float>(epoch) /
            static_cast<float>(config_.warmup_epochs);
    } else if (config_.lr_decay != 1.0f) {
      const int64_t decay_epochs =
          epoch - std::max<int64_t>(config_.warmup_epochs, 0) - 1;
      if (decay_epochs > 0) {
        lr *= std::pow(config_.lr_decay, static_cast<float>(decay_epochs));
      }
    }
    optimizer.set_lr(lr);
    model->SetTraining(true);
    double loss_sum = 0.0;
    int64_t loss_count = 0;
    double max_grad_norm = 0.0;
    bool diverged = false;
    for (const data::Batch& batch : batcher.Epoch()) {
      autograd::Variable loss = model->Loss(batch);
      const double loss_value = loss.value()[0];
      if (!std::isfinite(loss_value)) {
        diverged = true;
        break;
      }
      loss_sum += loss_value;
      ++loss_count;
      loss.Backward();
      if (!GradsFinite(optimizer.params())) {
        diverged = true;
        break;
      }
      if (config_.grad_clip_norm > 0.0) {
        // Pre-clip norm feeds both the clip and the epoch telemetry (the
        // max over batches is the divergence-adjacent signal to watch).
        const double grad_norm = optimizer.GradNorm();
        max_grad_norm = std::max(max_grad_norm, grad_norm);
        optimizer.ClipGradNorm(config_.grad_clip_norm, grad_norm);
      }
      optimizer.Step();
    }

    if (diverged) {
      if (rollbacks >= config_.max_rollbacks) {
        return Status::Aborted(
            "training diverged (non-finite loss or gradient) at epoch " +
            std::to_string(epoch) + " after " + std::to_string(rollbacks) +
            " rollback(s); giving up");
      }
      const int64_t next_rollbacks = rollbacks + 1;
      const float next_base_lr = base_lr * 0.5f;
      telemetry->OnRollback({model->name(), epoch, last_good.epoch, base_lr,
                             next_base_lr, next_rollbacks,
                             config_.max_rollbacks});
      SLIME_RETURN_IF_ERROR(apply(last_good));
      // The rollback itself consumes budget and halves the rate; those two
      // survive the restore.
      rollbacks = next_rollbacks;
      base_lr = next_base_lr;
      result.rollbacks = rollbacks;
      // An aborted step may have left partial gradients accumulated.
      optimizer.ZeroGrad();
      epoch = last_good.epoch;  // loop increment resumes at the next epoch
      continue;
    }

    result.final_train_loss = loss_count ? loss_sum / loss_count : 0.0;
    result.epochs_run = epoch;
    result.rollbacks = rollbacks;

    const metrics::RankingMetrics valid = Evaluate(model, split, false);
    const bool improved = valid.ndcg10 > best_valid;
    {
      obs::EpochRecord record;
      record.model = model->name();
      record.epoch = epoch;
      record.loss = result.final_train_loss;
      record.lr = lr;
      record.grad_norm = max_grad_norm;
      record.batches = loss_count;
      record.valid = valid;
      record.improved = improved;
      record.wall_nanos = clock->NowNanos() - epoch_start_nanos;
      telemetry->OnEpoch(record);
    }
    if (improved) {
      best_valid = valid.ndcg10;
      result.valid = valid;
      result.best_epoch = epoch;
      since_best = 0;
      best_params.clear();
      for (const auto& p : model->Parameters()) {
        best_params.push_back(p.value().Clone());
      }
    } else {
      ++since_best;
    }

    last_good = capture(epoch);
    if (!config_.checkpoint_dir.empty() &&
        (improved || (config_.checkpoint_every > 0 &&
                      epoch % config_.checkpoint_every == 0))) {
      SLIME_RETURN_IF_ERROR(SaveTrainState(
          last_good, SnapshotPath(config_.checkpoint_dir), env));
      if (improved) {
        SLIME_RETURN_IF_ERROR(io::SaveCheckpoint(
            *model, BestModelPath(config_.checkpoint_dir), env));
      }
    }

    if (!improved && since_best >= config_.patience) break;
  }

  // Restore the best-validation parameters before the test pass.
  if (!best_params.empty()) {
    auto params = model->Parameters();
    SLIME_CHECK_EQ(params.size(), best_params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].mutable_value() = best_params[i];
    }
  }
  result.test = Evaluate(model, split, true);
  telemetry->OnFitSummary({model->name(), result.epochs_run,
                           result.best_epoch, result.rollbacks,
                           result.final_train_loss, result.test});
  return result;
}

}  // namespace train
}  // namespace slime
