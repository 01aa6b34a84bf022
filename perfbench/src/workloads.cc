#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "autograd/ops.h"
#include "common/random.h"
#include "compute/thread_pool.h"
#include "core/contrastive.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "models/model_factory.h"
#include "serving/fallback.h"
#include "train/trainer.h"

namespace perfbench {

namespace slm = slime;

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Zipf(s=1) over [0, n) by inverse CDF: rank r has weight 1/(r+1).
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(slm::Rng* rng) const {
    const double u = rng->UniformDouble();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::mutex g_dirs_mu;
std::vector<std::string> g_dirs;

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return SplitMix(seed ^ salt);
}

bool KnownWorkload(const std::string& workload) {
  return workload == "train" || workload == "rank_large_catalog" ||
         workload == "serve_mixed";
}

int TrainThreads() { return std::min(4, slm::compute::HardwareThreads()); }

int ClientThreads() {
  return std::max(1, slm::compute::HardwareThreads() - 1);
}

WorkloadShape ShapeOf(const std::string& workload) {
  if (workload == "train") return {workload, 128, TrainThreads(), true};
  if (workload == "rank_large_catalog") return {workload, 64, 1, false};
  return {workload, 1, 1, false};
}

slm::data::SplitDataset MakeSplit(const std::string& workload, uint64_t seed,
                                  int64_t max_prefixes) {
  slm::data::SyntheticConfig config;
  if (workload == "rank_large_catalog") {
    config = slm::data::SportsSimConfig(1.0);
    config.num_items = kLargeCatalogItems;
  } else {
    config = slm::data::BeautySimConfig(1.0);
  }
  config.seed = SplitMix(seed);
  return slm::data::SplitDataset(slm::data::GenerateSynthetic(config),
                                 max_prefixes);
}

slm::models::ModelConfig ModelConfigFor(const slm::data::SplitDataset& split,
                                        uint64_t seed) {
  slm::models::ModelConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.seed = SplitMix(seed ^ 0x51ed4ecull);
  return c;
}

std::unique_ptr<slm::core::Slime4Rec> MakeModel(
    const slm::models::ModelConfig& config) {
  std::unique_ptr<slm::models::SequentialRecommender> m =
      slm::models::CreateModel("SLIME4Rec", config);
  return std::unique_ptr<slm::core::Slime4Rec>(
      static_cast<slm::core::Slime4Rec*>(m.release()));
}

std::string MakeFreshDir(const std::string& parent, const std::string& tag) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/" + tag + "-XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a directory under %s\n",
                 parent.c_str());
    std::exit(1);
  }
  std::lock_guard<std::mutex> lock(g_dirs_mu);
  g_dirs.emplace_back(buf.data());
  return g_dirs.back();
}

void RemoveFreshDirs() {
  std::lock_guard<std::mutex> lock(g_dirs_mu);
  for (const std::string& d : g_dirs) {
    std::error_code ec;
    std::filesystem::remove_all(d, ec);
  }
  g_dirs.clear();
}

bool ValidList(const std::vector<slm::serving::Recommendation>& items,
               int64_t num_items, const std::unordered_set<int64_t>& seen,
               std::string* why) {
  // A user who has seen most of the catalogue gets a shorter list.
  const int64_t unseen = num_items - static_cast<int64_t>(seen.size());
  const int64_t want = std::min(kTopK, unseen);
  if (static_cast<int64_t>(items.size()) != want) {
    *why = "list has " + std::to_string(items.size()) + " items, want " +
           std::to_string(want);
    return false;
  }
  std::unordered_set<int64_t> listed;
  for (const slm::serving::Recommendation& r : items) {
    if (r.item < 1 || r.item > num_items) {
      *why = "item " + std::to_string(r.item) + " out of range";
      return false;
    }
    if (!listed.insert(r.item).second) {
      *why = "item " + std::to_string(r.item) + " listed twice";
      return false;
    }
    if (seen.count(r.item) != 0) {
      *why = "item " + std::to_string(r.item) + " is in the user's history";
      return false;
    }
  }
  return true;
}

bool ValidList(const std::vector<slm::serving::Recommendation>& items,
               int64_t num_items, const std::vector<int64_t>& history,
               std::string* why) {
  return ValidList(items, num_items,
                   std::unordered_set<int64_t>(history.begin(), history.end()),
                   why);
}

bool SameList(const std::vector<slm::serving::Recommendation>& a,
              const std::vector<slm::serving::Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

Fleet StartFleet(const slm::data::SplitDataset& split,
                 const slm::models::ModelConfig& config,
                 const std::string& state_dir, slm::obs::Tracer* tracer,
                 slm::obs::MetricsRegistry* registry, Checks* checks) {
  slm::cluster::ClusterOptions options;
  options.num_shards = 4;
  options.replication = 2;
  options.state_dir = state_dir;
  options.metrics = registry;
  options.tracer = tracer;
  options.shard.metrics = registry;
  options.shard.tracer = tracer;
  Fleet fleet;
  fleet.num_items = split.num_items();
  fleet.server = std::make_unique<slm::cluster::ClusterServer>(
      options, [config]() {
        return slm::models::CreateModel("SLIME4Rec", config);
      });
  fleet.server->set_canary_requests(slm::train::ExportCanarySet(split, 4));
  fleet.server->set_fallback(slm::serving::PopularityFallback::FromSplit(split));
  const slm::Status started = fleet.server->Start();
  checks->Expect(started.ok(), "cluster start: " + started.ToString());
  fleet.histories = split.train_region();
  fleet.fresh.assign(fleet.histories.size(), 1);
  for (size_t u = 0; u < fleet.histories.size(); ++u) {
    auto ack = fleet.server->AppendEvent(u, fleet.histories[u]);
    checks->Expect(ack.ok(), "priming append for user " + std::to_string(u) +
                                 ": " + ack.status().ToString());
  }
  return fleet;
}

slm::autograd::Variable DecomposedLoss(slm::core::Slime4Rec* model,
                                       const slm::data::Batch& batch,
                                       SpanLog* spans) {
  namespace ag = slm::autograd;
  const auto timed = [spans](const char* name, auto&& fn) {
    if (spans == nullptr) return fn();
    return spans->Time(name, fn);
  };
  const int64_t b = batch.size;
  ag::Variable h = timed("models.encode_last",
                         [&] { return model->EncodeLast(batch.input_ids, b); });
  ag::Variable logits =
      timed("models.predict_logits", [&] { return model->PredictLogits(h); });
  ag::Variable ce = timed("autograd.cross_entropy", [&] {
    return ag::CrossEntropy(logits, batch.targets);
  });
  ag::Variable h_unsup = timed(
      "models.encode_last", [&] { return model->EncodeLast(batch.input_ids, b); });
  ag::Variable h_sup = timed("models.encode_last", [&] {
    return model->EncodeLast(batch.positive_input_ids, b);
  });
  const slm::models::ModelConfig& c = model->config();
  ag::Variable cl = timed("core.infonce", [&] {
    return slm::core::InfoNceLoss(h_unsup, h_sup, c.cl_temperature);
  });
  return timed("autograd.loss_sum", [&] {
    return ag::Add(ce, ag::MulScalar(cl, c.cl_weight));
  });
}

void CheckDecomposedLoss(slm::core::Slime4Rec* model,
                         const slm::data::Batch& batch, Checks* checks) {
  const slm::RngState saved = model->rng()->state();
  const float whole = model->Loss(batch).value()[0];
  model->rng()->set_state(saved);
  const float parts = DecomposedLoss(model, batch, nullptr).value()[0];
  model->rng()->set_state(saved);
  checks->Expect(std::memcmp(&whole, &parts, sizeof(float)) == 0,
                 "decomposed training loss " + FormatDouble(parts) +
                     " is not bit-identical to Slime4Rec::Loss " +
                     FormatDouble(whole));
}

void CheckEvaluate(slm::core::Slime4Rec* model,
                   const slm::data::SplitDataset& split, bool test,
                   const slm::metrics::RankingMetrics& got, Checks* checks) {
  const bool was_training = model->training();
  model->SetTraining(false);
  slm::metrics::RankingAccumulator acc;
  for (const slm::data::Batch& batch :
       slm::data::MakeEvalBatches(split, test, 256, model->config().max_len)) {
    acc.Add(model->ScoreAll(batch), batch.targets);
  }
  model->SetTraining(was_training);
  const slm::metrics::RankingMetrics want =
      slm::metrics::RankingMetrics::From(acc);
  checks->Expect(want.hr5 == got.hr5 && want.hr10 == got.hr10 &&
                     want.ndcg5 == got.ndcg5 && want.ndcg10 == got.ndcg10,
                 "Evaluate NDCG@10 " + FormatDouble(got.ndcg10) +
                     " differs from the ScoreAll recomputation " +
                     FormatDouble(want.ndcg10));
}

namespace {

struct Arrival {
  int64_t at_nanos;  // offset from the segment start
  uint64_t user;
  bool write;
  uint64_t pick;     // writes: which history item to interact with again
};

/// One answered read kept for comparison with direct RecommendBatch
/// output after the segment, so the model replay never delays the
/// generator. Histories only grow, so the history the read saw is the
/// prefix of the final one of length `history_len`.
struct Answer {
  uint64_t user;
  size_t history_len;
  std::vector<slm::serving::Recommendation> items;
};

int64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void WaitUntil(int64_t due) {
  for (;;) {
    const int64_t left = due - NowNanos();
    if (left <= 0) return;
    if (left > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200000));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(Fleet* fleet, double rate, double seconds,
                           uint64_t seed, int clients,
                           slm::models::SequentialRecommender* reference,
                           int64_t validate_every, int64_t sample_every,
                           Checks* checks, SpanLog* spans) {
  // The whole schedule is drawn up front from the seed, then split by user
  // over the client threads (each keeps its arrivals in time order).
  slm::Rng rng(SplitMix(seed ^ 0x0be11004ull));
  const ZipfSampler zipf(fleet->histories.size());
  std::vector<std::vector<Arrival>> plan(static_cast<size_t>(clients));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.at_nanos = static_cast<int64_t>(t * 1e9);
    a.user = static_cast<uint64_t>(zipf.Sample(&rng));
    a.write = rng.UniformDouble() < 0.1;
    a.pick = rng.NextUint64();
    plan[a.user % static_cast<size_t>(clients)].push_back(a);
  }

  struct PerClient {
    OpenLoopResult r;
    int64_t last_done = 0;
    std::vector<Answer> answers;
    // Per user of this client: the history prefix folded in, its items.
    std::unordered_map<uint64_t, std::pair<size_t, std::unordered_set<int64_t>>>
        seen;
    int64_t validated = 0;
    int64_t invalid = 0;
    std::vector<Span> tree;
    std::vector<std::pair<int64_t, double>> lags;  // (scheduled, lag ms)
  };
  std::vector<PerClient> per(static_cast<size_t>(clients));
  slm::serving::ServeRequest request;
  request.options.top_k = kTopK;
  request.options.exclude_seen = true;
  const int64_t t0 = NowNanos() + 2000000;  // 2 ms for thread start-up

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& pc = per[static_cast<size_t>(c)];
      int64_t reads_seen = 0;
      for (const Arrival& a : plan[static_cast<size_t>(c)]) {
        const int64_t due = t0 + a.at_nanos;
        WaitUntil(due);
        const int64_t issued = NowNanos();
        const int64_t cpu0 = ThreadCpuNanos();
        pc.lags.emplace_back(a.at_nanos, NanosToMs(issued - due));
        std::vector<int64_t>& history = fleet->histories[a.user];
        if (a.write) {
          // A repeat interaction with an item the user already has: the
          // history grows but the set of seen items does not, so even the
          // hottest user never exhausts the catalogue during a run.
          ++pc.r.writes;
          const int64_t item = history[a.pick % history.size()];
          auto ack = fleet->server->AppendEvent(a.user, {item});
          const int64_t done = NowNanos();
          pc.r.op_cpu_nanos += ThreadCpuNanos() - cpu0;
          pc.r.op_busy_nanos += done - issued;
          pc.last_done = done;
          if (ack.ok()) {
            history.push_back(item);
            fleet->fresh[a.user] = 1;
            pc.r.write_ms.push_back(NanosToMs(done - due));
          } else {
            ++pc.r.write_failures;
          }
          if (spans) pc.tree.push_back({"bench.append", issued, done, -1, 0});
          continue;
        }
        ++pc.r.reads;
        auto resp = fleet->server->ServeSession(a.user, request);
        const int64_t done = NowNanos();
        pc.r.op_cpu_nanos += ThreadCpuNanos() - cpu0;
        pc.r.op_busy_nanos += done - issued;
        pc.last_done = done;
        if (spans) pc.tree.push_back({"bench.read", issued, done, -1, 0});
        if (!resp.ok()) {
          ++pc.r.read_failures;
          continue;
        }
        pc.r.read_ms.push_back(NanosToMs(done - due));
        if (fleet->fresh[a.user]) {
          pc.r.fresh_read_ms.push_back(NanosToMs(done - due));
          fleet->fresh[a.user] = 0;
        }
        switch (resp.value().tier) {
          case slm::serving::ServeTier::kFullModel:
            ++pc.r.full_tier;
            break;
          case slm::serving::ServeTier::kTruncatedHistory:
            ++pc.r.truncated_tier;
            break;
          case slm::serving::ServeTier::kPopularityFallback:
            ++pc.r.fallback_tier;
            break;
        }
        // Validation runs after the operation's completion time is taken;
        // a client owns its users, so their histories are stable here.
        const int64_t nth = reads_seen++;
        if (nth % validate_every == 0) {
          auto& [folded, items] = pc.seen[a.user];
          for (; folded < history.size(); ++folded) items.insert(history[folded]);
          std::string why;
          ++pc.validated;
          if (!ValidList(resp.value().items, fleet->num_items, items, &why) &&
              pc.invalid++ < 5) {
            checks->Expect(false, "served list for user " +
                                      std::to_string(a.user) + ": " + why);
          }
        }
        if (reference != nullptr && nth % sample_every == 0 &&
            resp.value().tier == slm::serving::ServeTier::kFullModel) {
          pc.answers.push_back(
              {a.user, history.size(), std::move(resp.value().items)});
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  OpenLoopResult out;
  out.offered_rate = rate;
  std::vector<std::pair<int64_t, double>> lags;
  for (size_t c = 0; c < per.size(); ++c) {
    PerClient& pc = per[c];
    out.reads += pc.r.reads;
    out.writes += pc.r.writes;
    out.read_failures += pc.r.read_failures;
    out.write_failures += pc.r.write_failures;
    out.full_tier += pc.r.full_tier;
    out.truncated_tier += pc.r.truncated_tier;
    out.fallback_tier += pc.r.fallback_tier;
    out.read_ms.insert(out.read_ms.end(), pc.r.read_ms.begin(),
                       pc.r.read_ms.end());
    out.op_cpu_nanos += pc.r.op_cpu_nanos;
    out.op_busy_nanos += pc.r.op_busy_nanos;
    out.fresh_read_ms.insert(out.fresh_read_ms.end(),
                             pc.r.fresh_read_ms.begin(),
                             pc.r.fresh_read_ms.end());
    out.wall_seconds =
        std::max(out.wall_seconds, std::max<int64_t>(0, pc.last_done - t0) / 1e9);
    out.write_ms.insert(out.write_ms.end(), pc.r.write_ms.begin(),
                        pc.r.write_ms.end());
    lags.insert(lags.end(), pc.lags.begin(), pc.lags.end());
    if (spans) spans->AddTree(pc.tree, 100 + static_cast<int64_t>(c));
  }
  out.wall_seconds = std::max(out.wall_seconds, seconds);
  std::sort(lags.begin(), lags.end());
  std::vector<double> tail_lags;
  for (size_t i = 0; i < lags.size(); ++i) {
    out.lag_ms.push_back(lags[i].second);
    if (i >= lags.size() - lags.size() / 10) tail_lags.push_back(lags[i].second);
  }
  out.final_lag_ms = tail_lags.empty() ? 0.0 : Median(tail_lags);

  // The sampled answers must match direct RecommendationService output from
  // an identically built model bit for bit.
  int64_t invalid = 0;
  for (const PerClient& pc : per) {
    out.validated += pc.validated;
    invalid += pc.invalid;
  }
  checks->Expect(invalid == 0, std::to_string(invalid) + " invalid lists");
  if (reference != nullptr) {
    slm::serving::RecommendationService direct(reference);
    for (const PerClient& pc : per) {
      for (const Answer& ans : pc.answers) {
        const std::vector<int64_t>& history = fleet->histories[ans.user];
        const std::vector<int64_t> prefix(
            history.begin(),
            history.begin() + static_cast<std::ptrdiff_t>(ans.history_len));
        auto want = direct.RecommendBatch({prefix}, request.options);
        checks->Expect(want.ok() && SameList(want.value()[0], ans.items),
                       "served list for user " + std::to_string(ans.user) +
                           " differs from direct RecommendBatch");
        ++out.checked_against_direct;
      }
    }
  }
  return out;
}

}  // namespace perfbench
