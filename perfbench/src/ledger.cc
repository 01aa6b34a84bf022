// The traced per-layer ledger. One traced run replays the workload's
// shapes (batch, catalogue, compute threads, train/eval mode) layer by
// layer through public entry points, with one span around each call the
// benchmark makes, and reports the per-layer metrics:
//
//   1. decomposed training steps (TrainBatcher::Epoch, EncodeLast x3,
//      PredictLogits, CrossEntropy, InfoNceLoss, Variable::Backward,
//      GradNorm/ClipGradNorm, Adam::Step) with the compute pool counters,
//      and a 1/2/4-thread sweep of the same steps;
//   2. a layer replay, forward and backward: FilterMixerLayer,
//      FilterMixerBlock, FeedForward, LayerNorm, Embedding, Rfft, Irfft,
//      InfoNceLoss, EncodeLast, PredictLogits;
//   3. kernel arms at the shapes the workloads run (TransA k=4096 m=n=32,
//      logits 64x32x18001) on both backends at 1, 2 and 4 threads, with a
//      CRC bit-identity check across thread counts;
//   4. evaluation (MakeEvalBatches, ScoreAll, RankingAccumulator::Add,
//      train::Evaluate), serving (TopKFromScores, RecommendBatch, a traced
//      ModelServer), state (StateStore::Append/Compact) and the cluster
//      (route/attempt spans from the library's tracer);
//   5. tracing overhead: the workload's own operation traced vs untraced;
//   6. on serve_mixed, the serve_max_rps search on an untraced fleet (an
//      info line, not a per-layer metric).
//
// Spans stay in memory and are written at the end as Chrome Trace Event
// JSON; a self-time table per layer is printed.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>

#include "autograd/ops.h"
#include "common/crc32.h"
#include "common/random.h"
#include "compute/backend.h"
#include "compute/kernels.h"
#include "compute/thread_pool.h"
#include "core/contrastive.h"
#include "data/batcher.h"
#include "fft/fft.h"
#include "fft/spectral_ops.h"
#include "metrics/ranking.h"
#include "nn/feed_forward.h"
#include "nn/layer_norm.h"
#include "optim/adam.h"
#include "runs.h"
#include "serving/fallback.h"
#include "serving/model_server.h"
#include "state/state_store.h"
#include "train/trainer.h"

namespace perfbench {

namespace slm = slime;
namespace ag = slime::autograd;

namespace {

constexpr int64_t kSeqLen = 32;
constexpr int64_t kDim = 32;

/// Fine histogram bounds (~5% steps from 50 ns to 10 s) so the compute
/// pool's region-time p50 is resolved well below the default power-of-4
/// buckets. Registered before the pool attaches, which fixes the bounds.
std::vector<int64_t> FineNanosBounds() {
  std::vector<int64_t> b;
  for (double v = 50.0; v < 1e10; v *= 1.05) {
    const int64_t x = static_cast<int64_t>(v);
    if (b.empty() || x > b.back()) b.push_back(x);
  }
  return b;
}

int64_t CounterValue(const slm::obs::MetricsSnapshot& s,
                     const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Median of a fixed-bucket histogram, interpolated linearly inside the
/// bucket that holds it (the snapshot's own p50 is that bucket's bound).
double InterpolatedMedian(const slm::obs::HistogramValue& h) {
  const double half = h.count / 2.0;
  double below = 0;
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    const double in_bucket = static_cast<double>(h.buckets[i]);
    if (below + in_bucket >= half && in_bucket > 0) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
      const double hi = static_cast<double>(h.bounds[i]);
      return lo + (hi - lo) * (half - below) / in_bucket;
    }
    below += in_bucket;
  }
  return static_cast<double>(h.max);
}

double MedianOr(const std::vector<double>& v, double fallback) {
  return v.empty() ? fallback : Median(v);
}

struct StepSet {
  std::vector<double> step_ms;
  std::vector<double> backward_ms;
};

/// Runs `steps` decomposed optimisation steps, each a "train.step" span
/// whose children are the calls the benchmark makes.
StepSet DecomposedSteps(slm::core::Slime4Rec* model, slm::optim::Adam* adam,
                        const std::vector<slm::data::Batch>& batches,
                        size_t* next, int steps, SpanLog* log) {
  StepSet out;
  for (int i = 0; i < steps; ++i) {
    const slm::data::Batch& batch = batches[(*next)++ % batches.size()];
    const int32_t root = log->Begin("train.step");
    ag::Variable loss = DecomposedLoss(model, batch, log);
    const int32_t bw = log->Begin("autograd.backward");
    loss.Backward();
    log->End(bw);
    const double norm =
        log->Time("optim.grad_norm", [&] { return adam->GradNorm(); });
    log->Time("optim.clip", [&] { adam->ClipGradNorm(5.0, norm); });
    log->Time("optim.adam", [&] { adam->Step(); });
    log->End(root);
    const Span& r = log->spans()[static_cast<size_t>(root)];
    const Span& b = log->spans()[static_cast<size_t>(bw)];
    out.step_ms.push_back(NanosToMs(r.end - r.start));
    out.backward_ms.push_back(NanosToMs(b.end - b.start));
  }
  return out;
}

/// Median wall time (us) of `backward` on fresh graphs built by `make`
/// (graph construction untimed).
std::vector<double> BackwardUs(const std::function<ag::Variable()>& make,
                               int reps) {
  std::vector<double> out;
  make().Backward();  // warm-up
  for (int i = 0; i < reps; ++i) {
    ag::Variable loss = make();
    const int64_t t0 = NowNanos();
    loss.Backward();
    out.push_back(NanosToUs(NowNanos() - t0));
  }
  return out;
}

struct KernelArm {
  double us = 0;
  uint32_t crc = 0;
};

/// Times one kernel call on zeroed output (zeroing untimed).
KernelArm TimeKernel(const std::function<void(float*)>& kernel, float* c,
                     size_t c_len, int reps) {
  std::vector<double> us;
  for (int i = 0; i <= reps; ++i) {
    std::fill(c, c + c_len, 0.0f);
    const int64_t t0 = NowNanos();
    kernel(c);
    if (i > 0) us.push_back(NanosToUs(NowNanos() - t0));  // first: warm-up
  }
  return {Median(us), slm::Crc32(c, c_len * sizeof(float))};
}

void KernelArms(Report* report, Checks* checks, SpanLog* log) {
  const std::string saved_backend = slm::compute::ActiveKernelBackend();
  const int saved_threads = slm::compute::NumThreads();
  slm::Rng rng(0xC0FFEEull);
  // TransA: the linear-layer weight gradient X^T dY over B*N rows at the
  // train shape. Logits: h W^T at the batch-64 serving shape.
  const int64_t ta_k = 128 * kSeqLen, ta_m = kDim, ta_n = kDim;
  const int64_t lg_m = 64, lg_k = kDim, lg_n = kLargeCatalogItems + 1;
  const slm::Tensor ta_a = slm::Tensor::Randn({ta_k, ta_m}, &rng);
  const slm::Tensor ta_b = slm::Tensor::Randn({ta_k, ta_n}, &rng);
  const slm::Tensor lg_a = slm::Tensor::Randn({lg_m, lg_k}, &rng);
  const slm::Tensor lg_b = slm::Tensor::Randn({lg_n, lg_k}, &rng);
  std::vector<float> ta_c(static_cast<size_t>(ta_m * ta_n));
  std::vector<float> lg_c(static_cast<size_t>(lg_m * lg_n));
  const int32_t arms_span = log->Begin("compute.kernel_arms");
  for (const char* backend : {"scalar", "simd"}) {
    auto set = slm::compute::SetKernelBackend(backend);
    checks->Expect(set.ok() && set.value() == backend,
                   std::string("kernel backend ") + backend +
                       " unavailable on this host");
    if (!set.ok()) continue;
    uint32_t ta_crc = 0, lg_crc = 0;
    for (int threads : {1, 2, 4}) {
      slm::compute::SetNumThreads(threads);
      const slm::compute::KernelTable& k = slm::compute::Dispatch();
      const std::string suffix =
          std::string(".") + backend + ".t" + std::to_string(threads);
      const KernelArm ta = log->Time("compute.transa" + suffix, [&] {
        return TimeKernel(
            [&](float* c) {
              k.matmul_trans_a(ta_a.data(), ta_b.data(), c, ta_k, ta_m, ta_n);
            },
            ta_c.data(), ta_c.size(), 30);
      });
      const KernelArm lg = log->Time("compute.logits_matmul" + suffix, [&] {
        return TimeKernel(
            [&](float* c) {
              k.matmul_trans_b(lg_a.data(), lg_b.data(), c, lg_m, lg_k, lg_n);
            },
            lg_c.data(), lg_c.size(), 15);
      });
      if (threads == 1) {
        ta_crc = ta.crc;
        lg_crc = lg.crc;
      }
      checks->Expect(ta.crc == ta_crc,
                     "TransA output differs across thread counts" + suffix);
      checks->Expect(lg.crc == lg_crc,
                     "logits output differs across thread counts" + suffix);
      report->Metric("compute.transa_us" + suffix, ta.us, "us",
                     "k=4096 m=32 n=32");
      report->Metric("compute.logits_matmul_us" + suffix, lg.us, "us",
                     "m=64 k=32 n=18001");
    }
  }
  log->End(arms_span);
  // Operation counts and bytes are computed from the tensor sizes, not
  // measured: 2*k*m*n flops, and every operand read once plus the output
  // written once.
  const auto work = [&](const char* name, int64_t m, int64_t k, int64_t n) {
    report->Info(std::string(name) + ".flop", 2.0 * m * k * n, "flop",
                 "computed from tensor sizes");
    report->Info(std::string(name) + ".bytes",
                 4.0 * (m * k + k * n + m * n), "bytes",
                 "computed from tensor sizes (operands + output once)");
  };
  work("compute.transa", ta_m, ta_k, ta_n);
  work("compute.logits_matmul", lg_m, lg_k, lg_n);
  (void)slm::compute::SetKernelBackend(saved_backend);
  slm::compute::SetNumThreads(saved_threads);
}

// serve_max_rps: the limits an offered rate must meet, and the search.
constexpr double kServeLimitMs = 10.0;  // read p99
constexpr double kMaxFailureShare = 0.001;
constexpr double kMaxFinalLagMs = 5.0;  // generator lateness = backlog
constexpr double kBracketStep = 1.3;
constexpr double kStairFirstStep = 1.08;
constexpr double kStairStep = 1.03;
constexpr size_t kStairMinSegments = 20;
constexpr double kSegmentSeconds = 0.3;

bool Sustained(const OpenLoopResult& r) {
  if (r.attempted() == 0) return false;
  // Failed reads miss the latency limit by definition.
  std::vector<double> lat = r.read_ms;
  lat.insert(lat.end(), static_cast<size_t>(r.read_failures), 1e300);
  return !lat.empty() && Quantile(lat, 0.99) <= kServeLimitMs &&
         r.failures() <= kMaxFailureShare * r.attempted() &&
         r.final_lag_ms <= kMaxFinalLagMs;
}

/// Prints serve_max_rps, the highest offered rate with read p99 <= 10 ms,
/// <= 0.1% failed operations and no growing backlog, searched on an
/// untraced fleet for about `seconds`. A coarse ramp (x1.3, one 0.3 s
/// segment per rate, until two misses in a row) finds a starting point; an
/// up-down staircase then steps the rate up after every sustained segment
/// and down after every missed one, so it settles where half the segments
/// meet the limits. The estimate is the geometric mean of the rates the
/// staircase visits after it has settled: no single unlucky segment moves
/// it by more than a fraction of a step.
void ReportMaxRps(Fleet* fleet, const RunOptions& opt, double seconds,
                  Report* report, Checks* checks) {
  const int64_t search_start = NowNanos();
  int64_t segments = 0;
  int64_t probe_ops = 0;
  int64_t probe_failures = 0;
  double ratio_sum = 0;
  int64_t ratio_n = 0;
  const auto segment = [&](double rate) {
    const OpenLoopResult r = RunOpenLoop(
        fleet, rate, kSegmentSeconds,
        DeriveSeed(opt.seed, 0x5eed0000ull + ++segments), ClientThreads(),
        nullptr, 8, 1 << 30, checks, nullptr);
    const bool sustained = Sustained(r);
    if (sustained) {
      report->CountOps(r.attempted(), r.failures());
      ratio_sum += r.achieved_rate() / rate;
      ++ratio_n;
    } else {
      probe_ops += r.attempted();
      probe_failures += r.failures();
    }
    return sustained;
  };
  double rate = opt.serve_rate;
  double start = 0;
  for (int misses = 0; misses < 2; rate *= kBracketStep) {
    if (segment(rate)) {
      start = rate;
      misses = 0;
    } else {
      ++misses;
    }
  }
  for (rate = opt.serve_rate / kBracketStep;
       start == 0 && rate * kSegmentSeconds >= 20; rate /= kBracketStep) {
    if (segment(rate)) start = rate;
  }
  rate = start;
  double step = kStairFirstStep;
  bool last_up = true;
  std::vector<double> visited;
  while (start > 0 &&
         (visited.size() < kStairMinSegments ||
          (NowNanos() - search_start) / 1e9 + kSegmentSeconds < seconds)) {
    visited.push_back(rate);
    const bool up = segment(rate);
    if (up != last_up) step = kStairStep;  // a reversal: fine steps from now
    last_up = up;
    rate = up ? rate * step : rate / step;
  }
  report->Info("overload_probe_ops", static_cast<double>(probe_ops), "count",
               std::to_string(probe_failures) +
                   " failed in unsustained search segments (not counted)");
  if (visited.empty()) {
    std::printf("info   serve_max_rps not found: no offered rate met the "
                "serving limit\n");
    return;
  }
  // The settled half of the staircase; offered rates convert to achieved
  // ones by the measured ratio.
  double log_sum = 0;
  const size_t from = visited.size() / 2;
  for (size_t i = from; i < visited.size(); ++i) log_sum += std::log(visited[i]);
  const double max_rps = std::exp(log_sum / (visited.size() - from)) *
                         (ratio_n > 0 ? ratio_sum / ratio_n : 1.0);
  report->Info("serve_max_rps", max_rps, "req/s",
               "read p99 <= 10 ms, <= 0.1% failed, no growing backlog; "
               "staircase over " + std::to_string(visited.size()) +
                   " segments of " + FormatDouble(kSegmentSeconds) +
                   " s from " + FormatDouble(start) + " ops/s");
}

void PrintSelfTimes(const std::string& title, const SpanLog& log) {
  const auto stats = log.Stats();
  std::printf("per-layer self time (%s): span, calls, total ms, self ms, "
              "p50 us, max us\n",
              title.c_str());
  for (const auto& [name, st] : stats) {
    std::printf("  %-36s %7" PRId64 " %12.3f %12.3f %12.2f %12.2f\n",
                name.c_str(), st.count, NanosToMs(st.total_nanos),
                NanosToMs(st.self_nanos), Median(st.durations_us),
                *std::max_element(st.durations_us.begin(),
                                  st.durations_us.end()));
  }
}

}  // namespace

void RunLedger(const RunOptions& opt, Report* report, Checks* checks) {
  const WorkloadShape shape = ShapeOf(opt.workload);
  slm::compute::SetNumThreads(shape.threads);
  SpanLog log;
  const slm::data::SplitDataset split = MakeSplit(opt.workload, opt.seed, 1);
  const slm::models::ModelConfig config = ModelConfigFor(split, opt.seed);
  auto model = MakeModel(config);
  const int64_t B = shape.batch;

  // --- 1. Decomposed training steps at the workload's batch and threads.
  slm::obs::MetricsRegistry pool_registry;
  pool_registry.histogram("compute.region_nanos", FineNanosBounds());
  model->SetTraining(true);
  slm::Rng batch_rng(DeriveSeed(opt.seed, 0xba7ull));
  slm::data::TrainBatcher batcher(&split, B, config.max_len, true, &batch_rng);
  const std::vector<slm::data::Batch> batches =
      log.Time("data.epoch_batches", [&] { return batcher.Epoch(); });
  CheckDecomposedLoss(model.get(), batches.front(), checks);
  slm::optim::Adam adam(model->Parameters());
  size_t next = 0;
  const int steps = B >= 128 ? 6 : (B >= 64 ? 10 : 40);
  slm::compute::SetMetricsRegistry(&pool_registry);
  const StepSet traced = DecomposedSteps(model.get(), &adam, batches, &next,
                                         steps, &log);
  slm::compute::SetMetricsRegistry(nullptr);
  const slm::obs::MetricsSnapshot pool = pool_registry.Snapshot();
  const int64_t regions = CounterValue(pool, "compute.regions");
  const int64_t inline_regions = CounterValue(pool, "compute.inline_regions");
  const int64_t chunks = CounterValue(pool, "compute.chunks");
  double region_p50 = 0;
  for (const auto& h : pool.histograms) {
    if (h.name == "compute.region_nanos") region_p50 = InterpolatedMedian(h);
  }

  // Untraced steps of the same kind for the tracing overhead (train).
  std::vector<double> untraced_step_ms;
  for (int i = 0; i < std::max(3, steps / 2); ++i) {
    const slm::data::Batch& batch = batches[next++ % batches.size()];
    const int64_t t0 = NowNanos();
    ag::Variable loss = model->Loss(batch);
    loss.Backward();
    adam.ClipGradNorm(5.0, adam.GradNorm());
    adam.Step();
    untraced_step_ms.push_back(NanosToMs(NowNanos() - t0));
  }

  // Child-span coverage of the decomposed step.
  const auto stats_now = log.Stats();
  const auto& step_stats = stats_now.at("train.step");
  const double coverage =
      1.0 - static_cast<double>(step_stats.self_nanos) /
                static_cast<double>(step_stats.total_nanos);
  checks->Expect(coverage >= 0.95,
                 "decomposed step children cover only " +
                     FormatDouble(coverage) + " of train.step");

  // Thread sweep (same steps at 1, 2 and 4 compute threads).
  std::map<int, StepSet> sweep;
  for (int threads : {1, 2, 4}) {
    slm::compute::SetNumThreads(threads);
    SpanLog sweep_log;
    sweep[threads] = DecomposedSteps(model.get(), &adam, batches, &next,
                                     std::max(2, steps / 3), &sweep_log);
    PrintSelfTimes("train steps at " + std::to_string(threads) + " threads",
                   sweep_log);
  }
  slm::compute::SetNumThreads(shape.threads);

  // --- 2. Layer replay at (B, N, d) in the workload's mode.
  model->SetTraining(shape.training);
  slm::Rng rng(DeriveSeed(opt.seed, 0x1a7e5ull));
  const ag::Variable x =
      ag::Param(slm::Tensor::Randn({B, kSeqLen, kDim}, &rng));
  const auto& block = *model->blocks().front();
  const auto& mixer = block.mixer();
  slm::nn::FeedForward ffn(kDim, config.dropout, &rng);
  ffn.SetTraining(shape.training);
  slm::nn::LayerNorm layer_norm(kDim);
  const int64_t bins = slm::fft::RfftBins(kSeqLen);
  const slm::fft::SpectralPair spectrum{
      ag::Param(slm::Tensor::Randn({B, bins, kDim}, &rng)),
      ag::Param(slm::Tensor::Randn({B, bins, kDim}, &rng))};
  const ag::Variable h1 = ag::Param(slm::Tensor::Randn({B, kDim}, &rng));
  const ag::Variable h2 = ag::Param(slm::Tensor::Randn({B, kDim}, &rng));
  const slm::data::Batch& batch = batches.front();
  const float temp = config.cl_temperature;
  const int reps = B >= 64 ? 10 : 40;
  struct LayerRow {
    const char* metric;
    std::function<void()> forward;
    std::function<ag::Variable()> graph;  // null: forward only
  };
  const std::vector<LayerRow> rows = {
      {"core.mixer", [&] { mixer.Forward(x, &rng); },
       [&] { return ag::Sum(mixer.Forward(x, &rng)); }},
      {"core.block", [&] { block.Forward(x, &rng); },
       [&] { return ag::Sum(block.Forward(x, &rng)); }},
      {"core.infonce", [&] { slm::core::InfoNceLoss(h1, h2, temp); },
       [&] { return slm::core::InfoNceLoss(h1, h2, temp); }},
      {"nn.ffn", [&] { ffn.Forward(x, &rng); },
       [&] { return ag::Sum(ffn.Forward(x, &rng)); }},
      {"nn.layernorm", [&] { layer_norm.Forward(x); },
       [&] { return ag::Sum(layer_norm.Forward(x)); }},
      {"nn.embedding",
       [&] { model->item_embedding().Forward(batch.input_ids, {B, kSeqLen}); },
       nullptr},
      {"fft.rfft", [&] { slm::fft::Rfft(x); },
       [&] {
         const slm::fft::SpectralPair p = slm::fft::Rfft(x);
         return ag::Add(ag::Sum(p.re), ag::Sum(p.im));
       }},
      {"fft.irfft", [&] { slm::fft::Irfft(spectrum, kSeqLen); },
       [&] { return ag::Sum(slm::fft::Irfft(spectrum, kSeqLen)); }},
  };
  const int32_t replay_span = log.Begin("layers.replay");
  for (const LayerRow& row : rows) {
    const std::string name = row.metric;
    const auto fwd = log.Time(name + ".forward", [&] {
      return RepeatUs(row.forward, reps, 0.05);
    });
    report->Metric(name + "_fwd_us", Median(fwd), "us",
                   "B=" + std::to_string(B) + " N=32 d=32");
    if (row.graph) {
      const auto bwd = log.Time(name + ".backward",
                                [&] { return BackwardUs(row.graph, reps); });
      report->Metric(name + "_bwd_us", Median(bwd), "us",
                     "includes the Sum seed's backward");
    }
  }
  std::vector<double> encode_ms, logits_ms;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNanos();
    const ag::Variable h = log.Time("models.encode_last", [&] {
      return model->EncodeLast(batch.input_ids, B);
    });
    const int64_t t1 = NowNanos();
    log.Time("models.predict_logits", [&] { return model->PredictLogits(h); });
    encode_ms.push_back(NanosToMs(t1 - t0));
    logits_ms.push_back(NanosToMs(NowNanos() - t1));
  }
  log.End(replay_span);

  // --- 3. Kernel arms (same shapes in every run).
  KernelArms(report, checks, &log);

  // --- 4a. Evaluation side.
  model->SetTraining(false);
  const int32_t eval_span = log.Begin("train.evaluate_replay");
  const std::vector<slm::data::Batch> eval_batches =
      log.Time("data.eval_batches", [&] {
        return slm::data::MakeEvalBatches(split, true, 256, config.max_len);
      });
  slm::metrics::RankingAccumulator acc;
  slm::Tensor first_scores;
  std::vector<double> score_ms, add_ms;
  for (const slm::data::Batch& eb : eval_batches) {
    const int64_t t0 = NowNanos();
    slm::Tensor scores =
        log.Time("models.score_all", [&] { return model->ScoreAll(eb); });
    const int64_t t1 = NowNanos();
    log.Time("metrics.rank_add", [&] { acc.Add(scores, eb.targets); });
    score_ms.push_back(NanosToMs(t1 - t0));
    add_ms.push_back(NanosToMs(NowNanos() - t1));
    if (!first_scores.defined()) first_scores = scores;
  }
  log.End(eval_span);
  const auto evaluate_ms = log.Time("train.evaluate", [&] {
    std::vector<double> ms;
    for (int i = 0; i < 2; ++i) {
      const int64_t t0 = NowNanos();
      const auto m = slm::train::Evaluate(model.get(), split, true);
      ms.push_back(NanosToMs(NowNanos() - t0));
      if (i == 0) CheckEvaluate(model.get(), split, true, m, checks);
    }
    return ms;
  });

  // --- 4b. Serving: top-K, the direct service call, a traced ModelServer.
  const int64_t num_items = split.num_items();
  std::vector<bool> excluded(static_cast<size_t>(num_items + 1), false);
  const auto topk_us = log.Time("serving.topk", [&] {
    return RepeatUs(
        [&] {
          slm::serving::TopKFromScores(first_scores.data(), num_items, kTopK,
                                       excluded);
        },
        20, 0.05);
  });
  std::vector<std::vector<int64_t>> histories;
  for (int64_t i = 0; i < B; ++i) histories.push_back(split.TestInput(i));
  slm::serving::RecommendOptions rec_options;
  rec_options.top_k = kTopK;
  slm::serving::RecommendationService direct(model.get());
  const auto recommend_us = log.Time("serving.recommend_batch", [&] {
    return RepeatUs([&] { (void)direct.RecommendBatch(histories, rec_options); },
                    reps, 0.1);
  });

  slm::obs::Tracer server_tracer(slm::serving::Clock::Default(), 1 << 16);
  slm::obs::MetricsRegistry server_registry;
  std::vector<double> server_traced_ms, server_plain_ms;
  int64_t tier_full = 0, tier_fast = 0, tier_fallback = 0, shed = 0;
  for (bool traced_server : {false, true}) {
    slm::serving::ModelServerOptions so;
    if (traced_server) {
      so.tracer = &server_tracer;
      so.metrics = &server_registry;
    }
    slm::serving::ModelServer server(so);
    server.set_canary_requests(slm::train::ExportCanarySet(split, 4));
    server.set_fallback(slm::serving::PopularityFallback::FromSplit(split));
    const slm::Status st = server.Start(MakeModel(config));
    checks->Expect(st.ok(), "ModelServer start: " + st.ToString());
    slm::serving::BatchServeRequest request;
    request.histories = histories;
    request.options = rec_options;
    request.deadline_nanos = 1000 * slm::serving::kNanosPerMilli;
    auto& out = traced_server ? server_traced_ms : server_plain_ms;
    for (int i = 0; i < 3 * reps; ++i) {
      const int64_t t0 = NowNanos();
      auto resp = server.ServeBatch(request);
      out.push_back(NanosToMs(NowNanos() - t0));
      if (!resp.ok()) {
        ++shed;
        continue;
      }
      if (!traced_server) continue;
      for (const auto& r : resp.value().responses) {
        tier_full += r.tier == slm::serving::ServeTier::kFullModel;
        tier_fast += r.tier == slm::serving::ServeTier::kTruncatedHistory;
        tier_fallback +=
            r.tier == slm::serving::ServeTier::kPopularityFallback;
      }
    }
  }
  report->CountOps(static_cast<int64_t>(server_traced_ms.size() +
                                        server_plain_ms.size()),
                   shed);
  log.ImportTraces(server_tracer.Traces(), "serving.", 10);

  // --- 4c. State: direct StateStore calls with the cluster's options.
  std::vector<double> append_us, compact_ms;
  {
    slm::state::StateStoreOptions so;
    so.dir = MakeFreshDir(opt.tmp_dir, "ledger-state");
    so.sync = slm::state::SyncMode::kGroup;
    so.snapshot_every_records = 1024;
    auto store = slm::state::StateStore::Open(so);
    checks->Expect(store.ok(), "StateStore open: " + store.status().ToString());
    if (store.ok()) {
      const int32_t s = log.Begin("state.replay");
      for (int round = 0; round < 3; ++round) {
        for (int64_t u = 0; u < 300; ++u) {
          const int64_t t0 = NowNanos();
          auto ack = store.value()->Append(
              static_cast<uint64_t>(u), {1 + (u * 7 + round) % num_items});
          append_us.push_back(NanosToUs(NowNanos() - t0));
          if (!ack.ok()) checks->Expect(false, "state append failed");
        }
        const int64_t t0 = NowNanos();
        checks->Expect(store.value()->Compact().ok(), "state compact failed");
        compact_ms.push_back(NanosToMs(NowNanos() - t0));
      }
      log.End(s);
    }
  }

  // --- 4d. Cluster: the library's route/attempt spans under open-loop
  // traffic. serve_mixed runs its fixed offered rate (plus an untraced
  // twin for the overhead); the other workloads a light 300 ops/s.
  const bool serve = opt.workload == "serve_mixed";
  const double rate = serve ? opt.serve_rate : 300.0;
  const double cluster_seconds = serve ? 3.0 : 1.0;
  slm::obs::Tracer cluster_tracer(slm::serving::Clock::Default(), 1 << 18);
  slm::obs::MetricsRegistry cluster_registry;
  auto reference = MakeModel(config);
  OpenLoopResult plain_loop, traced_loop;
  for (bool traced_fleet : {false, true}) {
    if (!traced_fleet && !serve) continue;
    Fleet fleet = StartFleet(
        split, config, MakeFreshDir(opt.tmp_dir, "ledger-fleet"),
        traced_fleet ? &cluster_tracer : nullptr,
        traced_fleet ? &cluster_registry : nullptr, checks);
    OpenLoopResult r = RunOpenLoop(&fleet, rate, cluster_seconds, opt.seed,
                                   ClientThreads(), reference.get(), 1, 25,
                                   checks,
                                   traced_fleet ? &log : nullptr);
    report->CountOps(r.attempted(), r.failures());
    (traced_fleet ? traced_loop : plain_loop) = std::move(r);
  }
  if (serve) {
    Fleet fleet = StartFleet(split, config,
                             MakeFreshDir(opt.tmp_dir, "ledger-max-rps"),
                             nullptr, nullptr, checks);
    ReportMaxRps(&fleet, opt, 0.3 * opt.seconds, report, checks);
  }
  {
    std::vector<slm::obs::Trace> cluster_traces, other;
    for (auto& t : cluster_tracer.Traces()) {
      const bool is_cluster =
          !t.spans.empty() && t.spans.front().name.rfind("cluster.", 0) == 0;
      (is_cluster ? cluster_traces : other).push_back(std::move(t));
    }
    // Cluster traces already carry the "cluster." prefix on their root.
    for (auto& t : cluster_traces) {
      for (size_t i = 1; i < t.spans.size(); ++i) {
        t.spans[i].name = "cluster." + t.spans[i].name;
      }
    }
    log.ImportTraces(cluster_traces, "", 200);
    log.ImportTraces(other, "fleet.", 400);
  }
  const auto cluster_snapshot = cluster_registry.Snapshot();
  const int64_t served = CounterValue(cluster_snapshot, "cluster.served");
  const int64_t attempts = CounterValue(cluster_snapshot, "cluster.attempts");

  // --- 5. Tracing overhead on the workload's own operation.
  double overhead = 0;
  std::string overhead_note;
  if (opt.workload == "train") {
    overhead = Median(traced.step_ms) / Median(untraced_step_ms);
    overhead_note = "decomposed traced step / untraced step, median";
  } else if (opt.workload == "rank_large_catalog") {
    overhead = Median(server_traced_ms) / Median(server_plain_ms);
    overhead_note = "ServeBatch with tracer+registry / without, median";
  } else {
    const auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / v.size();
    };
    overhead = mean(traced_loop.read_ms) / mean(plain_loop.read_ms);
    overhead_note = "mean read latency at the fixed rate, traced / untraced";
  }

  // --- Report, in one fixed order for every workload.
  const std::string shape_note = "B=" + std::to_string(B) + ", " +
                                 std::to_string(shape.threads) + " thread(s)";
  report->Metric("compute.regions_per_step",
                 static_cast<double>(regions) / steps, "count", shape_note);
  report->Metric("compute.inline_share",
                 regions > 0 ? static_cast<double>(inline_regions) / regions
                             : 0.0,
                 "ratio", "regions run inline on the caller");
  report->Metric("compute.chunks_per_region",
                 regions > 0 ? static_cast<double>(chunks) / regions : 0.0,
                 "count");
  report->Metric("compute.region_p50_us", region_p50 / 1e3, "us",
                 "interpolated inside a ~5% histogram bucket");
  report->Metric("models.encode_last_ms", Median(encode_ms), "ms", shape_note);
  report->Metric("models.predict_logits_ms", Median(logits_ms), "ms",
                 shape_note + ", |V|=" + std::to_string(num_items + 1));
  report->Metric("models.score_all_ms", Median(score_ms), "ms",
                 "per eval batch of 256");
  const auto child_ms = [&](const std::string& name) {
    std::vector<double> v = log.DurationsUs(name);
    for (double& x : v) x /= 1e3;
    return MedianOr(v, 0.0);
  };
  report->Metric("autograd.backward_ms", Median(traced.backward_ms), "ms",
                 "per step");
  report->Metric("autograd.cross_entropy_ms",
                 child_ms("autograd.cross_entropy"), "ms", "forward, per step");
  report->Metric("optim.clip_ms",
                 child_ms("optim.grad_norm") + child_ms("optim.clip"), "ms",
                 "GradNorm + ClipGradNorm per step");
  report->Metric("optim.adam_ms", child_ms("optim.adam"), "ms", "per step");
  report->Metric("data.epoch_batches_ms", child_ms("data.epoch_batches"), "ms",
                 std::to_string(batches.size()) + " batches");
  report->Metric("data.eval_batches_ms", child_ms("data.eval_batches"), "ms",
                 std::to_string(eval_batches.size()) + " batches");
  report->Metric("train.step_ms", Median(traced.step_ms), "ms", shape_note);
  report->Metric("train.step_coverage", coverage, "ratio",
                 "share of train.step covered by its child spans");
  report->Metric("train.evaluate_ms", Median(evaluate_ms), "ms",
                 std::to_string(split.num_users()) + " users");
  for (int threads : {1, 2, 4}) {
    const std::string t = ".t" + std::to_string(threads);
    report->Metric("train.step_ms" + t, Median(sweep[threads].step_ms), "ms",
                   "thread sweep");
    report->Metric("autograd.backward_ms" + t,
                   Median(sweep[threads].backward_ms), "ms", "thread sweep");
  }
  report->Metric("metrics.rank_add_ms", Median(add_ms), "ms",
                 "per eval batch of 256");
  report->Metric("serving.topk_us", Median(topk_us), "us",
                 "|V|=" + std::to_string(num_items));
  report->Metric("serving.recommend_batch_ms", Median(recommend_us) / 1e3,
                 "ms", shape_note);
  report->Metric("serving.admit_us", MedianOr(log.DurationsUs("serving.admit"), 0),
                 "us", "ModelServer span");
  report->Metric("serving.forward_full_us",
                 MedianOr(log.DurationsUs("serving.forward.full"), 0), "us",
                 "ModelServer span, includes the inference-mutex wait");
  report->Metric("cluster.attempts_per_served",
                 served > 0 ? static_cast<double>(attempts) / served : 0.0,
                 "ratio", "attempts per useful answer");
  report->Metric("cluster.route_us",
                 MedianOr(log.DurationsUs("cluster.route"), 0), "us");
  report->Metric("cluster.attempt_us",
                 MedianOr(log.DurationsUs("cluster.attempt"), 0), "us");
  report->Metric("state.append_us", Median(append_us), "us",
                 "StateStore::Append, group commit of 8");
  report->Metric("state.compact_ms", Median(compact_ms), "ms");
  report->Metric("bench.trace_overhead_ratio", overhead, "ratio",
                 overhead_note);
  report->Metric("bench.gen_lag_p99_ms", Quantile(traced_loop.lag_ms, 0.99),
                 "ms",
                 "traced open loop at " + FormatDouble(rate) + " ops/s, " +
                     Summarize(traced_loop.lag_ms).Describe("ms"));

  // Informational counts (may legitimately be zero).
  report->Info("serving.tier_full", static_cast<double>(tier_full), "count");
  report->Info("serving.tier_fast_path", static_cast<double>(tier_fast),
               "count");
  report->Info("serving.tier_fallback", static_cast<double>(tier_fallback),
               "count");
  report->Info("serving.shed_or_failed", static_cast<double>(shed), "count");
  for (const char* c : {"cluster.retries", "cluster.failovers",
                        "cluster.hedges", "cluster.hedge_wins"}) {
    report->Info(c, static_cast<double>(CounterValue(cluster_snapshot, c)),
                 "count");
  }
  if (!append_us.empty()) {
    report->Info("state.append_p99_us", Quantile(append_us, 0.99), "us",
                 Summarize(append_us).Describe("us"));
  }
  report->Info("train.untraced_step_ms", Median(untraced_step_ms), "ms");

  PrintSelfTimes(opt.workload + " ledger", log);
  const std::string trace_path = opt.out_dir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) + ".json";
  checks->Expect(log.WriteChromeTrace(trace_path, "perfbench " + opt.workload),
                 "cannot write " + trace_path);
  std::printf("chrome trace: %s\n", trace_path.c_str());
  report->CountOps(static_cast<int64_t>(traced.step_ms.size()), 0);
}

}  // namespace perfbench
