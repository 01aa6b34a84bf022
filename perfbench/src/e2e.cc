// Untraced end-to-end runs. Every workload reports the same three contract
// metrics, each defined on the work that workload does:
//
//   setup_s           median of repeated set-ups (data generation, split,
//                     model construction, server/cluster start with canary
//                     validation, state priming)
//   throughput_per_s  train: training samples/s through Trainer::Fit
//                     (validation included); rank_large_catalog: users/s
//                     ranked by train::Evaluate; serve_mixed: operations
//                     per client CPU second at the fixed offered rate
//   latency_p50_ms    train: one optimisation step; rank_large_catalog:
//                     ServeBatch with 64 histories; serve_mixed: a
//                     ServeSession read that must run the model (the first
//                     read after an append), at the fixed offered rate
//
// The workload-specific figures (tails, append latency, tier shares,
// validation NDCG) are printed as info lines.
#include "runs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "autograd/ops.h"
#include "common/random.h"
#include "compute/thread_pool.h"
#include "data/batcher.h"
#include "optim/adam.h"
#include "serving/fallback.h"
#include "serving/model_server.h"
#include "train/trainer.h"

namespace perfbench {

namespace slm = slime;

namespace {

// rank_large_catalog alternates evaluation and ServeBatch in this many
// rounds.
constexpr int kRankRounds = 6;

double Elapsed(int64_t since) { return (NowNanos() - since) / 1e9; }

slm::train::TrainConfig FitConfig(uint64_t seed) {
  slm::train::TrainConfig c;
  c.max_epochs = 1;
  c.batch_size = 128;
  c.patience = 100;
  c.seed = DeriveSeed(seed, 0xf17ull);
  return c;
}

bool SameMetrics(const slm::metrics::RankingMetrics& a,
                 const slm::metrics::RankingMetrics& b) {
  return a.hr5 == b.hr5 && a.hr10 == b.hr10 && a.ndcg5 == b.ndcg5 &&
         a.ndcg10 == b.ndcg10 && a.mrr == b.mrr;
}

void RunTrain(const RunOptions& opt, Report* report, Checks* checks) {
  const int64_t run_start = NowNanos();
  std::vector<double> setup_s;
  for (int i = 0; i < 21; ++i) {
    const int64_t t0 = NowNanos();
    slm::data::SplitDataset split = MakeSplit("train", opt.seed, 1);
    auto model = MakeModel(ModelConfigFor(split, opt.seed));
    setup_s.push_back(Elapsed(t0));
  }
  const slm::data::SplitDataset split = MakeSplit("train", opt.seed, 1);
  const slm::models::ModelConfig config = ModelConfigFor(split, opt.seed);
  const int64_t samples = static_cast<int64_t>(split.train_samples().size());

  // Phase 1: whole Fit calls (one epoch each, fresh model, identical work)
  // for about half the window.
  std::vector<double> fit_rate;
  std::unique_ptr<slm::core::Slime4Rec> model;
  slm::metrics::RankingMetrics first_valid;
  int64_t fits = 0;
  int64_t fit_failures = 0;
  while (fits == 0 || Elapsed(run_start) < 0.5 * opt.seconds) {
    model = MakeModel(config);
    slm::train::Trainer trainer(FitConfig(opt.seed));
    const int64_t t0 = NowNanos();
    auto result = trainer.Fit(model.get(), split);
    const double dt = Elapsed(t0);
    ++fits;
    if (!result.ok() || result.value().rollbacks != 0) {
      ++fit_failures;
      checks->Expect(false, "Fit failed: " + result.status().ToString());
      break;
    }
    fit_rate.push_back(static_cast<double>(samples) *
                       static_cast<double>(result.value().epochs_run) / dt);
    if (fits == 1) {
      first_valid = result.value().valid;
      // The restored best parameters are the epoch-1 parameters, so a
      // fresh validation pass must reproduce Fit's numbers exactly.
      const auto again = slm::train::Evaluate(model.get(), split, false);
      checks->Expect(SameMetrics(again, first_valid),
                     "Evaluate after Fit differs from Fit's validation");
      CheckEvaluate(model.get(), split, false, again, checks);
    } else {
      checks->Expect(SameMetrics(result.value().valid, first_valid),
                     "repeated Fit with the same seed changed validation");
    }
  }

  // Phase 2: optimisation steps on the fitted model (the body of Fit's
  // loop) until the window closes.
  std::vector<double> step_ms;
  int64_t step_failures = 0;
  if (model != nullptr && fit_failures == 0) {
    model->SetTraining(true);
    slm::Rng batch_rng(DeriveSeed(opt.seed, 0xba7ull));
    slm::data::TrainBatcher batcher(&split, 128, config.max_len, true,
                                    &batch_rng);
    slm::optim::Adam adam(model->Parameters());
    const std::vector<slm::data::Batch> batches = batcher.Epoch();
    CheckDecomposedLoss(model.get(), batches.front(), checks);
    size_t next = 0;
    while (step_ms.size() < 5 || Elapsed(run_start) < opt.seconds) {
      const slm::data::Batch& batch = batches[next++ % batches.size()];
      const int64_t t0 = NowNanos();
      slm::autograd::Variable loss = model->Loss(batch);
      if (!std::isfinite(loss.value()[0])) {
        ++step_failures;
        checks->Expect(false, "non-finite training loss");
        break;
      }
      loss.Backward();
      adam.ClipGradNorm(5.0, adam.GradNorm());
      adam.Step();
      step_ms.push_back(NanosToMs(NowNanos() - t0));
    }
  }
  report->CountOps(fits + static_cast<int64_t>(step_ms.size()) + step_failures,
                   fit_failures + step_failures);
  if (fit_rate.empty() || step_ms.empty()) return;

  const LatencySummary steps = Summarize(step_ms);
  report->Metric("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups");
  report->Metric("throughput_per_s", Median(fit_rate), "1/s",
                 "train_samples_per_s: median of " +
                     std::to_string(fit_rate.size()) + " Fit calls, " +
                     std::to_string(samples) + " samples x 1 epoch");
  report->Metric("latency_p50_ms", steps.p50, "ms",
                 "training step: " + steps.Describe("ms"));
  report->Info("train_samples_per_s", Median(fit_rate), "samples/s");
  report->Info("valid_ndcg10", first_valid.ndcg10, "ratio",
               "TrainResult.valid.ndcg10 after 1 epoch");
  if (steps.tail_level > 0) {
    report->Info("step_tail_ms", steps.tail, "ms", steps.Describe("ms"));
  }
}

std::vector<slm::serving::BatchServeRequest> BatchRequests(
    const slm::data::SplitDataset& split, uint64_t seed, int64_t batch,
    int64_t count) {
  slm::Rng rng(DeriveSeed(seed, 0xb64ull));
  std::vector<slm::serving::BatchServeRequest> out(static_cast<size_t>(count));
  for (auto& r : out) {
    for (int64_t i = 0; i < batch; ++i) {
      const int64_t user = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(split.num_users())));
      r.histories.push_back(split.TestInput(user));
    }
    r.options.top_k = kTopK;
    r.options.exclude_seen = true;
    // Generous budget: this measures the full-model path, not the ladder.
    r.deadline_nanos = 1000 * slm::serving::kNanosPerMilli;
  }
  return out;
}

void RunRank(const RunOptions& opt, Report* report, Checks* checks) {
  const int64_t run_start = NowNanos();
  std::vector<double> setup_s;
  std::unique_ptr<slm::core::Slime4Rec> model;
  std::unique_ptr<slm::serving::ModelServer> server;
  for (int i = 0; i < 9; ++i) {
    const int64_t t0 = NowNanos();
    slm::data::SplitDataset split =
        MakeSplit("rank_large_catalog", opt.seed, 1);
    const slm::models::ModelConfig config = ModelConfigFor(split, opt.seed);
    model = MakeModel(config);
    server = std::make_unique<slm::serving::ModelServer>(
        slm::serving::ModelServerOptions{});
    server->set_canary_requests(slm::train::ExportCanarySet(split, 4));
    server->set_fallback(slm::serving::PopularityFallback::FromSplit(split));
    const slm::Status st = server->Start(MakeModel(config));
    setup_s.push_back(Elapsed(t0));
    checks->Expect(st.ok(), "ModelServer start: " + st.ToString());
  }
  const slm::data::SplitDataset split =
      MakeSplit("rank_large_catalog", opt.seed, 1);

  // Full-ranking evaluation over every user and a closed loop of
  // 64-history ServeBatch calls from one client, interleaved in short
  // rounds so that a slow spell of the host lands on both and on only some
  // rounds. Latency is the median of the per-round medians.
  const auto requests = BatchRequests(split, opt.seed, 64, 64);
  slm::serving::RecommendationService direct(model.get());
  std::vector<double> users_per_s;
  slm::metrics::RankingMetrics first;
  std::vector<double> batch_ms;
  std::vector<double> round_p50_ms;
  int64_t failures = 0;
  int64_t not_full = 0;
  int64_t compared = 0;
  for (int round = 0; round < kRankRounds && failures <= 3; ++round) {
    const double eval_until = opt.seconds * (round + 0.45) / kRankRounds;
    const double round_until = opt.seconds * (round + 1.0) / kRankRounds;
    const size_t round_evals = users_per_s.size();
    while (users_per_s.size() == round_evals ||
           Elapsed(run_start) < eval_until) {
      const int64_t t0 = NowNanos();
      const auto m = slm::train::Evaluate(model.get(), split, true);
      users_per_s.push_back(static_cast<double>(split.num_users()) /
                            Elapsed(t0));
      if (users_per_s.size() == 1) {
        first = m;
        CheckEvaluate(model.get(), split, true, m, checks);
      } else {
        checks->Expect(SameMetrics(m, first), "repeated Evaluate differs");
      }
    }
    std::vector<double> round_ms;
    while (round_ms.size() < 4 || Elapsed(run_start) < round_until) {
      const size_t k = batch_ms.size() + static_cast<size_t>(failures);
      const auto& request = requests[k % requests.size()];
      const int64_t t0 = NowNanos();
      auto resp = server->ServeBatch(request);
      const double ms = NanosToMs(NowNanos() - t0);
      if (!resp.ok()) {
        ++failures;
        checks->Expect(false, "ServeBatch: " + resp.status().ToString());
        if (failures > 3) break;
        continue;
      }
      batch_ms.push_back(ms);
      round_ms.push_back(ms);
      const auto& responses = resp.value().responses;
      for (size_t i = 0; i < responses.size(); ++i) {
        std::string why;
        if (!ValidList(responses[i].items, split.num_items(),
                       request.histories[i], &why)) {
          checks->Expect(false,
                         "batch64 list " + std::to_string(i) + ": " + why);
        }
        if (responses[i].tier != slm::serving::ServeTier::kFullModel) {
          ++not_full;
        }
      }
      if (k < requests.size() && k % 8 == 0) {
        auto want = direct.RecommendBatch(request.histories, request.options);
        bool same = want.ok();
        for (size_t i = 0; same && i < responses.size(); ++i) {
          same = SameList(want.value()[i], responses[i].items);
        }
        checks->Expect(same, "ServeBatch differs from direct RecommendBatch");
        ++compared;
      }
    }
    if (!round_ms.empty()) round_p50_ms.push_back(Median(round_ms));
  }
  report->CountOps(static_cast<int64_t>(users_per_s.size()) +
                       static_cast<int64_t>(batch_ms.size()) + failures,
                   failures);
  if (batch_ms.empty()) return;
  const LatencySummary lat = Summarize(batch_ms);
  report->Metric("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups");
  report->Metric("throughput_per_s", Median(users_per_s), "1/s",
                 "eval_users_per_s: median of " +
                     std::to_string(users_per_s.size()) + " Evaluate calls, " +
                     std::to_string(split.num_users()) + " users x " +
                     std::to_string(split.num_items()) + " items");
  report->Metric("latency_p50_ms", Median(round_p50_ms), "ms",
                 "batch64 ServeBatch: median of " +
                     std::to_string(round_p50_ms.size()) +
                     " round medians; all calls " + lat.Describe("ms"));
  report->Info("eval_users_per_s", Median(users_per_s), "users/s");
  report->Info("batch64_p50_ms", lat.p50, "ms", lat.Describe("ms"));
  if (lat.tail_level > 0) {
    report->Info("batch64_tail_ms", lat.tail, "ms", lat.Describe("ms"));
  }
  report->Info("eval_ndcg10", first.ndcg10, "ratio", "untrained model");
  report->Info("batch64_not_full_tier", static_cast<double>(not_full),
               "count", "responses below the full-model tier");
  report->Info("batch64_checked_direct", static_cast<double>(compared),
               "count", "requests compared with direct RecommendBatch");
}

void RunServe(const RunOptions& opt, Report* report, Checks* checks) {
  std::vector<double> setup_s;
  Fleet fleet;
  for (int i = 0; i < 5; ++i) {
    fleet = Fleet();  // stop the previous fleet before timing a new one
    const int64_t t0 = NowNanos();
    slm::data::SplitDataset split = MakeSplit("serve_mixed", opt.seed, 1);
    const std::string dir = MakeFreshDir(opt.tmp_dir, "state");
    fleet = StartFleet(split, ModelConfigFor(split, opt.seed), dir, nullptr,
                       nullptr, checks);
    setup_s.push_back(Elapsed(t0));
  }
  const slm::data::SplitDataset split = MakeSplit("serve_mixed", opt.seed, 1);
  auto reference = MakeModel(ModelConfigFor(split, opt.seed));
  const int clients = ClientThreads();

  // The fixed offered rate. The max-rps search, which drives the fleet into
  // overload and appends at several times the fixed rate, runs in the
  // traced ledger.
  const OpenLoopResult fixed =
      RunOpenLoop(&fleet, opt.serve_rate, 0.9 * opt.seconds, opt.seed,
                  clients, reference.get(), 1, 25, checks, nullptr);
  report->CountOps(fixed.attempted(), fixed.failures());
  if (fixed.fresh_read_ms.empty() || fixed.write_ms.empty()) {
    return;
  }

  const LatencySummary fresh = Summarize(fixed.fresh_read_ms);
  const LatencySummary reads = Summarize(fixed.read_ms);
  const LatencySummary writes = Summarize(fixed.write_ms);
  const LatencySummary lag = Summarize(fixed.lag_ms);
  const double answered = static_cast<double>(
      fixed.full_tier + fixed.truncated_tier + fixed.fallback_tier);
  char rate_note[64];
  std::snprintf(rate_note, sizeof(rate_note), "at %.0f ops/s offered, ",
                opt.serve_rate);
  report->Metric("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups");
  report->Metric("throughput_per_s", fixed.ops_per_cpu_second(), "1/s",
                 std::string("serve_ops_per_cpu_s: operations per client CPU "
                             "second ") + rate_note + "mixed reads and writes");
  report->Metric("latency_p50_ms", fresh.p50, "ms",
                 std::string("ServeSession read that must run the model ") +
                     rate_note + fresh.Describe("ms"));
  // Lock and sync waits are in this figure, but it follows the host disk
  // too closely to be gated (see README.md).
  report->Info("serve_ops_per_busy_s", fixed.ops_per_busy_second(), "1/s",
               "operations per second of client time inside the calls, "
               "lock and disk waits included");
  report->Info("serve_p50_ms", reads.p50, "ms",
               std::string("all reads ") + rate_note + reads.Describe("ms"));
  report->Info("serve_p99_ms", Quantile(fixed.read_ms, 0.99), "ms",
               reads.Describe("ms"));
  report->Info("serve_fresh_p50_ms", fresh.p50, "ms", fresh.Describe("ms"));
  report->Info("append_p99_ms", Quantile(fixed.write_ms, 0.99), "ms",
               writes.Describe("ms"));
  report->Info("serve_full_model_share",
               answered > 0 ? fixed.full_tier / answered : 0.0, "ratio",
               "of " + std::to_string(fixed.reads) + " reads; " +
                   std::to_string(fixed.truncated_tier) + " truncated, " +
                   std::to_string(fixed.fallback_tier) + " fallback, " +
                   std::to_string(fixed.read_failures) + " failed");
  report->Info("bench.gen_lag_p99_ms", Quantile(fixed.lag_ms, 0.99), "ms",
               lag.Describe("ms"));
  report->Info("served_validated", static_cast<double>(fixed.validated),
               "count", "reads at the fixed rate whose lists were checked");
  report->Info("served_checked_direct",
               static_cast<double>(fixed.checked_against_direct), "count",
               "reads compared with direct RecommendBatch");
}

}  // namespace

void RunEndToEnd(const RunOptions& opt, Report* report, Checks* checks) {
  const WorkloadShape shape = ShapeOf(opt.workload);
  slm::compute::SetNumThreads(shape.threads);
  if (opt.workload == "train") {
    RunTrain(opt, report, checks);
  } else if (opt.workload == "rank_large_catalog") {
    RunRank(opt, report, checks);
  } else {
    RunServe(opt, report, checks);
  }
  checks->Expect(report->metric_count() == 3,
                 "the run did not produce every end-to-end metric");
}

}  // namespace perfbench
