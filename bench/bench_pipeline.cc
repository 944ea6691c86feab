// Data-pipeline benchmark: measures what the pre-training batch pipeline
// (length-bucketed plan, per-step seeding) buys over the seed path, and
// emits BENCH_pipeline.json for CI tracking.
//
// Four measurements:
//  1. End-to-end training-step throughput (assemble + encoder forward):
//     the seed path — per-step fresh allocations, batches padded to the
//     shuffle-chunk max — against the pipeline, whose bucketed batches
//     shrink the padded [B, L] extent the encoder has to attend over.
//  2. Producer-only throughput (batches/sec of pure assembly) of both.
//  3. Padding efficiency (real tokens / padded slots) of the shuffled
//     seed plan vs. the bucketed plan.
//  4. CH-backed detour generation vs the per-call Yen search.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target bench_pipeline
//   ./build/bench_pipeline
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/start_model.h"
#include "data/batch.h"
#include "data/dataset.h"
#include "data/detour.h"
#include "data/loader.h"
#include "data/span_mask.h"
#include "roadnet/synthetic_city.h"
#include "tensor/tensor.h"
#include "traj/traffic_model.h"
#include "traj/trip_generator.h"

namespace {

using start::common::Rng;
using start::common::Stopwatch;

constexpr int64_t kBatchSize = 32;
constexpr uint64_t kSeed = 7;

struct World {
  std::unique_ptr<start::roadnet::RoadNetwork> net;
  std::unique_ptr<start::traj::TrafficModel> traffic;
  std::vector<start::traj::Trajectory> corpus;
};

World BuildWorld() {
  World w;
  w.net = std::make_unique<start::roadnet::RoadNetwork>(
      start::roadnet::BuildSyntheticCity({.grid_width = 20,
                                          .grid_height = 20}));
  w.traffic = std::make_unique<start::traj::TrafficModel>(
      w.net.get(), start::traj::TrafficModel::Config{});
  start::traj::TripGenerator::Config config;
  config.num_drivers = 12;
  config.num_days = 6;
  config.trips_per_driver_day = 4.0;
  // Wide OD zones on the larger grid give the heavy-tailed length mix of
  // the real taxi corpora (many short errands, long cross-town commutes) —
  // the regime length bucketing is designed for.
  config.zone_radius_m = 2000.0;
  config.seed = 17;
  start::traj::TripGenerator gen(w.traffic.get(), config);
  auto raw = gen.Generate();
  // The anchor-zone commuter trips are short; add cross-town rides between
  // far corners of the grid so the corpus gets the heavy tail of the real
  // taxi datasets (lengths spanning ~6..128). This is the regime the
  // length-bucketed batching is designed for.
  Rng od_rng(23);
  const int64_t v = w.net->num_segments();
  for (int i = 0; i < 220; ++i) {
    const int64_t driver = i % config.num_drivers;
    const int64_t depart = (6 + i % 16) * 3600;
    const int64_t src = od_rng.UniformInt(v / 8);
    const int64_t dst = v - 1 - od_rng.UniformInt(v / 8);
    auto t = gen.GenerateTrip(driver, src, dst, depart);
    if (t.size() == 0) continue;
    if (i % 2 == 0) {
      // Two-leg ride through a random waypoint, re-timed with the
      // congestion model — these populate the 50..128-road tail.
      const int64_t mid = od_rng.UniformInt(v);
      auto leg2 = gen.GenerateTrip(driver, t.roads.back(), mid, depart);
      if (leg2.size() > 1) {
        t.roads.insert(t.roads.end(), leg2.roads.begin() + 1,
                       leg2.roads.end());
        t.timestamps.clear();
        double clock = static_cast<double>(depart);
        for (const int64_t r : t.roads) {
          t.timestamps.push_back(static_cast<int64_t>(clock));
          clock += std::max(
              1.0, w.traffic->ExpectedTravelTime(
                       r, static_cast<int64_t>(clock)));
        }
        t.end_time = static_cast<int64_t>(clock);
      }
    }
    if (t.roads.front() != t.roads.back()) raw.push_back(std::move(t));
  }
  start::data::DatasetConfig ds;
  ds.min_length = 6;
  ds.min_user_trajectories = 2;
  w.corpus =
      start::data::TrajDataset::FromCorpus(*w.net, std::move(raw), ds).All();
  return w;
}

/// The training thread's per-step compute: forward the masked batch and the
/// contrastive batch through the encoder (no grad — the relative cost across
/// pipeline variants is what matters, and it keeps the bench fast).
/// `share_road_reps` mirrors the pretrain loop's stage-1 sharing; the seed
/// path re-evaluated the GAT inside every Encode call.
double ConsumeStep(const start::core::StartModel& model,
                   const start::data::TrainingBatch& tb,
                   bool share_road_reps) {
  start::tensor::NoGradGuard no_grad;
  double checksum = 0.0;
  // cls may be a zero-copy slice of the sequence output; compact before
  // reading through data().
  if (share_road_reps) {
    const start::tensor::Tensor reps = model.ComputeRoadReps();
    if (tb.has_masked) {
      checksum += model.Encode(tb.masked, reps).cls.Contiguous().data()[0];
    }
    if (tb.has_contrastive) {
      checksum +=
          model.Encode(tb.contrastive, reps).cls.Contiguous().data()[0];
    }
  } else {
    if (tb.has_masked) {
      checksum += model.Encode(tb.masked).cls.Contiguous().data()[0];
    }
    if (tb.has_contrastive) {
      checksum += model.Encode(tb.contrastive).cls.Contiguous().data()[0];
    }
  }
  return checksum;
}

/// Faithful reimplementation of the seed's synchronous step loop
/// (core/pretrain.cc before the loader): one shared Rng consumed serially,
/// shuffle-chunked batches padded to the chunk max, and every per-step
/// buffer (views, batch arrays, positions) allocated fresh.
double RunSeedPath(const World& w, const start::core::StartModel* model,
                   int64_t steps, double* sink) {
  const auto& corpus = w.corpus;
  Rng rng(kSeed);
  std::vector<int64_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int64_t>(i);
  }
  rng.Shuffle(&order);
  start::data::AugmentationConfig aug_cfg;
  Stopwatch timer;
  for (int64_t s = 0; s < steps; ++s) {
    std::vector<const start::traj::Trajectory*> batch;
    for (int64_t k = 0; k < kBatchSize; ++k) {
      const int64_t idx = order[static_cast<size_t>(
          (s * kBatchSize + k) % static_cast<int64_t>(corpus.size()))];
      batch.push_back(&corpus[static_cast<size_t>(idx)]);
    }
    start::data::TrainingBatch tb;
    {
      std::vector<start::data::View> views;
      std::vector<start::data::SpanMaskInfo> infos;
      for (const auto* t : batch) {
        start::data::View v = start::data::MakeView(*t);
        infos.push_back(start::data::ApplySpanMask(&v, 2, 0.15, &rng));
        views.push_back(std::move(v));
      }
      tb.masked = start::data::MakeBatch(views);
      tb.has_masked = true;
    }
    {
      std::vector<start::data::View> views;
      for (const auto* t : batch) {
        views.push_back(start::data::Augment(
            *t, start::data::AugmentationKind::kTrim, aug_cfg,
            w.traffic.get(), &rng));
        views.push_back(start::data::Augment(
            *t, start::data::AugmentationKind::kTemporalShift, aug_cfg,
            w.traffic.get(), &rng));
      }
      tb.contrastive = start::data::MakeBatch(views);
      tb.has_contrastive = true;
    }
    if (model != nullptr) {
      *sink += ConsumeStep(*model, tb, /*share_road_reps=*/false);
    }
  }
  return timer.ElapsedSeconds();
}

/// The pipeline as core::Pretrain runs it: bucketed plan, each step a fresh
/// batch built from its own StepSeed stream. With
/// `model == nullptr` the consumer is a no-op (producer-only variant).
double RunPipeline(const World& w, const start::core::StartModel* model,
                   int64_t steps, double* sink) {
  start::data::PlanConfig plan_config;
  plan_config.batch_size = kBatchSize;
  plan_config.epochs =
      std::max<int64_t>(1, (steps * kBatchSize) /
                               static_cast<int64_t>(w.corpus.size()) +
                               1);
  plan_config.seed = kSeed;
  const auto plan =
      start::data::MakeShuffledPlan(start::data::Lengths(w.corpus),
                                    plan_config);
  steps = std::min<int64_t>(steps, static_cast<int64_t>(plan.steps.size()));

  Stopwatch timer;
  for (int64_t step = 0; step < steps; ++step) {
    Rng rng(start::data::StepSeed(kSeed, step));
    const start::data::TrainingBatch tb = start::data::BuildPretrainBatch(
        w.corpus, w.traffic.get(), {}, plan.steps[static_cast<size_t>(step)],
        &rng);
    if (model != nullptr) {
      *sink += ConsumeStep(*model, tb, /*share_road_reps=*/true);
    }
  }
  return timer.ElapsedSeconds();
}

double PlanEfficiency(const std::vector<int64_t>& lengths,
                      const std::vector<std::vector<int64_t>>& plan) {
  int64_t tokens = 0, slots = 0;
  for (const auto& batch : plan) {
    int64_t max_len = 0;
    for (const int64_t idx : batch) {
      tokens += lengths[static_cast<size_t>(idx)];
      max_len = std::max(max_len, lengths[static_cast<size_t>(idx)]);
    }
    slots += max_len * static_cast<int64_t>(batch.size());
  }
  return static_cast<double>(tokens) / static_cast<double>(slots);
}

}  // namespace

int main() {
  const World w = BuildWorld();
  const auto lengths = start::data::Lengths(w.corpus);
  int64_t min_len = 1 << 20, max_len = 0, total = 0;
  for (const int64_t l : lengths) {
    min_len = std::min(min_len, l);
    max_len = std::max(max_len, l);
    total += l;
  }
  std::printf("corpus: %zu trajectories, lengths %ld..%ld (mean %.1f)\n",
              w.corpus.size(), min_len, max_len,
              static_cast<double>(total) /
                  static_cast<double>(lengths.size()));

  const auto transfer =
      start::roadnet::TransferProbability::FromTrajectories(
          *w.net, [&] {
            std::vector<std::vector<int64_t>> seqs;
            for (const auto& t : w.corpus) seqs.push_back(t.roads);
            return seqs;
          }());
  start::core::StartConfig model_config;
  model_config.d = 32;
  model_config.encoder_layers = 2;
  model_config.encoder_heads = 4;
  model_config.gat_heads = {4, 1};
  model_config.gat_layers = 2;
  model_config.max_len = 160;
  Rng rng(kSeed);
  start::core::StartModel model(model_config, w.net.get(), &transfer, &rng);
  model.SetTraining(false);

  const int64_t kSteps = 48;
  double sink = 0.0;

  // Warm both paths once (model caches, allocator) before timing.
  RunPipeline(w, &model, 4, &sink);

  // 1. End-to-end: assemble + encode. Best of two runs per path — the
  // acceptance gates below are hard CI failures, so a single noisy-neighbor
  // hiccup on a shared runner must not decide them.
  const auto best_of_2 = [](const std::function<double()>& run) {
    const double first = run();
    return std::min(first, run());
  };
  const double seed_s =
      best_of_2([&] { return RunSeedPath(w, &model, kSteps, &sink); });
  const double pipe_s =
      best_of_2([&] { return RunPipeline(w, &model, kSteps, &sink); });
  const double e2e_seed = static_cast<double>(kSteps) / seed_s;
  const double e2e_pipe = static_cast<double>(kSteps) / pipe_s;

  // 2. Producer-only assembly throughput (long runs: assembly is fast).
  const int64_t kProdSteps = 1024;
  const double prod_seed =
      static_cast<double>(kProdSteps) /
      RunSeedPath(w, nullptr, kProdSteps, &sink);
  const double prod_pipe =
      static_cast<double>(kProdSteps) /
      RunPipeline(w, nullptr, kProdSteps, &sink);

  // 3. Padding efficiency of one epoch's plan, seed shuffle vs bucketed.
  start::data::PlanConfig eff_config;
  eff_config.batch_size = kBatchSize;
  eff_config.seed = kSeed;
  eff_config.bucket_by_length = false;
  const double eff_shuffled =
      PlanEfficiency(lengths,
                     start::data::MakeShuffledPlan(lengths, eff_config).steps);
  eff_config.bucket_by_length = true;
  const double eff_bucketed =
      PlanEfficiency(lengths,
                     start::data::MakeShuffledPlan(lengths, eff_config).steps);

  // 4. Detour augmentation: the per-call Yen search (a Dijkstra cascade per
  // trajectory) vs the CH-backed DetourGenerator, identical selection logic
  // and rng stream on the identical corpus. Both price only the search: the
  // Yen side's free-flow CsrGraph is built untimed, and the generator's
  // one-time CSR + CH build is timed separately — it is amortized over every
  // augmentation call of a training run.
  const start::data::DetourConfig detour_cfg;
  const auto free_flow =
      start::roadnet::CsrGraph::FromNetworkFreeFlow(w.traffic->network());
  const auto time_detours =
      [&](const std::function<std::optional<start::traj::Trajectory>(
              const start::traj::Trajectory&, Rng*)>& make) {
        Rng detour_rng(31);
        int64_t made = 0;
        Stopwatch timer;
        for (const auto& t : w.corpus) {
          if (make(t, &detour_rng).has_value()) ++made;
        }
        return std::make_pair(timer.ElapsedSeconds(), made);
      };
  const auto [yen_s, yen_made] = time_detours([&](const auto& t, Rng* r) {
    return start::data::MakeDetour(*w.traffic, free_flow, t, detour_cfg, r);
  });
  Stopwatch detour_watch;
  start::data::DetourGenerator detours(w.traffic.get(), detour_cfg);
  const double detour_build_s = detour_watch.ElapsedSeconds();
  const auto [ch_s, ch_made] = time_detours(
      [&](const auto& t, Rng* r) { return detours.Generate(t, r); });
  const double detour_yen_per_sec =
      static_cast<double>(w.corpus.size()) / yen_s;
  const double detour_ch_per_sec = static_cast<double>(w.corpus.size()) / ch_s;
  const double detour_speedup = yen_s / ch_s;

  const double speedup_e2e = e2e_pipe / e2e_seed;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host                 : %u hardware threads\n", cores);
  std::printf("end-to-end steps/sec : seed %.2f | pipeline %.2f "
              "(%.2fx over seed)\n", e2e_seed, e2e_pipe, speedup_e2e);
  std::printf("producer batches/sec : seed %.1f | pipeline %.1f\n",
              prod_seed, prod_pipe);
  std::printf("padding efficiency   : shuffled %.3f -> bucketed %.3f\n",
              eff_shuffled, eff_bucketed);
  std::printf("detour augmentation  : yen %.1f/s (%ld made) | ch %.1f/s "
              "(%ld made, build %.0f ms) — %.1fx\n",
              detour_yen_per_sec, yen_made, detour_ch_per_sec, ch_made,
              detour_build_s * 1e3, detour_speedup);

  std::FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_pipeline.json for writing\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"hardware_threads\": %u,\n"
               "  \"end_to_end_steps_per_sec\": {\"seed_sync\": %.3f, "
               "\"pipeline_sync\": %.3f},\n"
               "  \"speedup_vs_seed\": %.3f,\n"
               "  \"producer_batches_per_sec\": {\"seed_sync\": %.2f, "
               "\"pipeline_sync\": %.2f},\n"
               "  \"padding_efficiency\": {\"shuffled\": %.4f, \"bucketed\": "
               "%.4f},\n"
               "  \"detour\": {\"yen_per_sec\": %.2f, \"ch_per_sec\": %.2f, "
               "\"ch_build_seconds\": %.3f, \"ch_speedup\": %.3f},\n"
               "  \"checksum\": %.6f\n"
               "}\n",
               cores, e2e_seed, e2e_pipe, speedup_e2e, prod_seed, prod_pipe,
               eff_shuffled, eff_bucketed, detour_yen_per_sec,
               detour_ch_per_sec, detour_build_s, detour_speedup, sink);
  std::fclose(json);
  std::printf("wrote BENCH_pipeline.json\n");

  // Acceptance gates: bucketing must deliver a real padding-efficiency win,
  // the pipeline must at least double the seed path's end-to-end step rate,
  // and CH detours must beat per-call Yen.
  if (eff_bucketed < eff_shuffled + 0.05) {
    std::fprintf(stderr, "FAIL: bucketed padding efficiency %.3f not "
                 "above shuffled %.3f + 0.05\n", eff_bucketed, eff_shuffled);
    return 1;
  }
  if (speedup_e2e < 2.0) {
    std::fprintf(stderr, "FAIL: pipeline speedup %.2fx over the seed path "
                 "< 2x\n", speedup_e2e);
    return 1;
  }
  if (detour_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: CH detour generation %.2fx not at least "
                 "1.5x over per-call Yen\n", detour_speedup);
    return 1;
  }
  return 0;
}
