// Workload `adapt`: the closed adaptation loop. AdaptationController::Create
// boots from the d=32 checkpoint and its persisted index; once the corpus
// ring is full, the run executes back-to-back TriggerRetrain rounds (so each
// round fine-tunes on a corpus of the same size: core retrain -> nn backward
// and optimizer -> tensor f32 GEMM, then corpus re-embedding, index rebuild
// and the hot swap) while a GPS replay stream and a search stream run at
// fixed low rates alongside. Three more rounds then run alone, for the CPU
// time of a round.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/adaptation.h"
#include "serve/embedding_index.h"
#include "serve/hnsw_index.h"
#include "serving.h"
#include "traj/map_matching.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

using start::serve::AdaptationController;
using start::serve::FrozenEncoder;
using start::serve::HnswIndex;
using start::traj::Trajectory;

constexpr int kGrid = 12;
constexpr int64_t kBaseRows = 1000;
constexpr int64_t kCorpus = 512;  // corpus ring capacity = fine-tune corpus
constexpr int64_t kStreamIdBase = 1'000'000;
constexpr double kReplayRate = 150.0;  // GPS items/s, open loop
constexpr double kSideRate = 100.0;    // searches/s, open loop
constexpr int kMinRounds = 3;
constexpr int kIsolatedRounds = 3;  // after the streams, for CPU per round
constexpr int64_t kRecallQueries = 256;
constexpr int kSetupTrials = 25;

start::serve::AdaptationConfig AdaptConfig(const std::string& dir,
                                           const std::string& checkpoint,
                                           uint64_t seed) {
  start::serve::AdaptationConfig config;
  config.model = ModelConfig(32);
  config.artifact_dir = dir;
  config.base_checkpoint = checkpoint;
  config.finetune.epochs = 1;
  config.finetune.seed = seed;
  // Larger than any run's stream, so drift never fires: rounds are
  // triggered explicitly.
  config.drift.window_size = int64_t{1} << 20;
  config.stream = PipelineConfig();
  config.corpus_capacity = kCorpus;
  return config;
}

}  // namespace

void RunAdapt(const Options& o, Report* r) {
  // ---- Inputs and artifacts (not timed) ------------------------------------
  const int64_t replay_n = static_cast<int64_t>(kReplayRate * o.seconds);
  const int64_t side_n =
      static_cast<int64_t>(kSideRate * o.seconds) + kRecallQueries + 16;
  const int64_t stream_trips = (kCorpus + replay_n) * 11 / 10 + 64;
  City city = MakeCity(kGrid, kBaseRows + side_n + stream_trips, 160, o.seed);
  start::common::Rng rng(o.seed * 7919 + 31);
  const std::vector<Trajectory> side = TakeTrips(&city, side_n);
  const std::vector<Trajectory> base = TakeTrips(&city, kBaseRows);
  std::vector<start::serve::StreamItem> stream =
      MakeGpsItems(city, TakeTrips(&city, stream_trips), kStreamIdBase, &rng);
  if (static_cast<int64_t>(stream.size()) < kCorpus + replay_n ||
      static_cast<int64_t>(side.size()) != side_n) {
    r->Check(false, "adapt inputs generated");
    return;
  }
  stream.resize(static_cast<size_t>(kCorpus + replay_n));

  const std::string dir = o.out_dir + "/adapt";
  mkdir(dir.c_str(), 0755);
  const std::string checkpoint = dir + "/base.sttn";
  const start::serve::AdaptationConfig config =
      AdaptConfig(dir, checkpoint, o.seed);
  {
    if (!WriteCheckpoint(checkpoint, config.model, city, o.seed)) {
      r->Check(false, "adapt checkpoint written");
      return;
    }
    auto encoder = FrozenEncoder::Load(checkpoint, config.model,
                                       city.net.get(), city.transfer.get());
    if (!encoder.ok()) {
      r->Check(false, "adapt checkpoint loads");
      return;
    }
    std::vector<int64_t> ids(static_cast<size_t>(kBaseRows));
    for (int64_t i = 0; i < kBaseRows; ++i) ids[static_cast<size_t>(i)] = i;
    HnswIndex index(config.model.d, config.index);
    if (!index
             .AddBatch(ids, encoder.value()->EmbedAll(
                                base, start::eval::EncodeMode::kFull))
             .ok() ||
        !index.Save(checkpoint + ".index").ok()) {
      r->Check(false, "persisted base index built");
      return;
    }
  }

  // ---- Set-up: artifacts on disk -> first request answered -----------------
  // The stage clock is the only way to see an item reach the finalizer: the
  // controller owns the pipeline's on_ingested callback.
  const size_t n = stream.size();
  StageClock clock(static_cast<int64_t>(n));
  std::vector<PipelineItem> items(n);
  std::vector<int64_t> due_ns(n, 0), sent_ns(n, 0);
  double rss_base_mb = 0.0;
  EndToEnd e2e;
  std::vector<double> first_ms;
  std::unique_ptr<AdaptationController> controller;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    controller.reset();
    // The peak covers the set-up that serves the run: earlier trials leave
    // freed memory in the allocator's per-thread arenas, handed back here.
    if (trial == kSetupTrials - 1) rss_base_mb = ResetPeakRss();
    // Let the previous trial's threads go idle (OpenMP workers spin for a
    // while after a parallel region), so their tail is not charged here.
    SleepUntilNs(NowNs() + 20'000'000);
    const uint64_t root = trace::NewId();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    auto created = AdaptationController::Create(
        config, city.net.get(), city.transfer.get(), city.traffic.get(),
        clock.hooks());
    const int64_t t1 = NowNs();
    if (!created.ok()) {
      r->Check(false, "adaptation controller boots");
      return;
    }
    controller = std::move(created.value());
    const auto engine = MakeQueryEngine(controller->engine(), SideSearchService());
    const uint64_t first = trace::NewId();
    const bool ok = SearchOnce(*engine, side[0], first, 0, nullptr);
    const int64_t t2 = NowNs();
    r->Check(ok && controller->stats().index_restored == 1,
             "first request answered from the persisted index");
    if (!ok) return;
    trace::Record("setup.create", t0, t1, trace::NewId(), root, 0);
    trace::Record("setup.first_request", t1, t2, first, root, 0);
    trace::Record("setup", t0, t2, root, 0, 0);
    e2e.setup_wall_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    e2e.setup_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    first_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  }

  // Fill the corpus ring so every round trains on kCorpus trajectories.
  int64_t next_seq = 0, prefill_failed = 0;
  const auto push = [&](int64_t i, int64_t due) {
    const size_t k = static_cast<size_t>(i);
    sent_ns[k] = NowNs();
    due_ns[k] = due;
    const bool ok = controller->Push(stream[k]).ok();
    if (ok) items[k] = {next_seq++, NowNs(), -1.0};
    return ok;
  };
  for (int64_t i = 0; i < kCorpus; ++i) {
    if (!push(i, NowNs())) ++prefill_failed;
  }
  controller->Flush();
  r->Check(controller->stats().corpus_size == kCorpus, "corpus ring full");

  // Searches follow the serving generation: a new engine after each swap.
  // A retired engine lives on while a request still holds it; its service
  // counters are folded into `retired_stats`.
  std::mutex engine_mu;
  std::shared_ptr<QueryEngine> engine;
  start::serve::ServiceStats retired_stats;
  const auto current = [&]() -> std::shared_ptr<QueryEngine> {
    const start::serve::EngineBundle bundle = controller->engine();
    std::lock_guard<std::mutex> lock(engine_mu);
    if (engine == nullptr || engine->encoder != bundle.encoder ||
        engine->index != bundle.index) {
      if (engine != nullptr) {
        const start::serve::ServiceStats s = engine->service->stats();
        retired_stats.requests += s.requests;
        retired_stats.batches += s.batches;
        retired_stats.padded_tokens += s.padded_tokens;
        retired_stats.real_tokens += s.real_tokens;
      }
      engine = MakeQueryEngine(bundle, SideSearchService());
    }
    return engine;
  };
  const auto side_query = [&](int64_t i) -> const Trajectory& {
    return side[static_cast<size_t>(i) % side.size()];
  };

  // ---- Measured phase: rounds back to back under both streams --------------
  const int64_t m0 = NowNs() + 20'000'000;
  const int64_t m1 = m0 + static_cast<int64_t>(o.seconds * 1e9);
  ServedLog log(16);
  StreamSamples replay_samples, side_samples;
  std::vector<double> round_s;
  std::vector<int64_t> round_start, round_end;
  bool generation_ok = true;
  CpuMeter cpu;
  RunMetered(
      &cpu,
      [&] {
        std::thread replay([&] {
          replay_samples = RunOpenLoop(
              kReplayRate, m0, m1, 1, /*record_latency=*/false,
              [&](int64_t i, int64_t due) { return push(kCorpus + i, due); });
        });
        std::thread searches([&] {
          side_samples = RunSearchStream("search.side", kSideRate, m0, m1, 4,
                                         side_query, current, &log);
        });
        SleepUntilNs(m0);
        for (int64_t round = 1;; ++round) {
          const int64_t now = NowNs();
          const int64_t last = round_s.empty()
                                   ? 0
                                   : static_cast<int64_t>(round_s.back() * 1e9);
          if (round > kMinRounds && now + last >= m1) break;
          controller->TriggerRetrain();
          const bool idle = controller->WaitUntilIdle(120'000'000);
          const int64_t end = NowNs();
          const auto s = controller->stats();
          generation_ok = generation_ok && idle &&
                          s.rounds_completed == round && s.generation == round;
          round_start.push_back(now);
          round_end.push_back(end);
          round_s.push_back(static_cast<double>(end - now) * 1e-9);
          if (!generation_ok) break;
        }
        replay.join();
        searches.join();
        controller->Flush();
      },
      {});
  // Rounds with nothing else running, so their CPU time is the round's own
  // and does not grow with the streams' share of a slower round.
  std::vector<double> round_cpu_s;
  for (int k = 1; k <= kIsolatedRounds && generation_ok; ++k) {
    const int64_t expected = static_cast<int64_t>(round_s.size()) + k;
    const double cpu0 = ProcessCpuSeconds();
    controller->TriggerRetrain();
    const bool idle = controller->WaitUntilIdle(120'000'000);
    round_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    const auto s = controller->stats();
    generation_ok = generation_ok && idle && s.rounds_completed == expected &&
                    s.generation == expected;
  }
  e2e.rss_mb = PeakRssMb() - rss_base_mb;
  const start::serve::AdaptationStats adapt_stats = controller->stats();
  const start::serve::PipelineStats stats = controller->pipeline()->stats();
  for (int64_t i = 0; i < replay_samples.attempted; ++i) {
    const size_t k = static_cast<size_t>(kCorpus + i);
    const int64_t done = clock.upsert_ns(items[k].seq);
    e2e.latency_ms.push_back(items[k].seq >= 0 && done > 0
                                 ? static_cast<double>(done - due_ns[k]) * 1e-6
                                 : static_cast<double>(m1 - m0) * 1e-6);
  }

  // ---- Correctness ---------------------------------------------------------
  const int64_t rounds = static_cast<int64_t>(round_s.size());
  const int64_t all_rounds = rounds + static_cast<int64_t>(round_cpu_s.size());
  r->Check(generation_ok && all_rounds == rounds + kIsolatedRounds &&
               adapt_stats.rounds_completed == all_rounds &&
               adapt_stats.generation == all_rounds,
           "each round completed and advanced the generation once");
  r->Check(stats.in_flight == 0 &&
               stats.accepted == stats.ingested() + stats.total_failed() +
                                     stats.embed.dropped + stats.upsert.dropped,
           "accepted == ingested + failed + dropped");
  // Post-swap oracle: every served id re-matched and re-embedded by the
  // serving generation's encoder.
  const start::serve::EngineBundle bundle = controller->engine();
  const start::traj::HmmMapMatcher matcher(city.net.get(),
                                           config.stream.matcher);
  std::vector<int64_t> served_ids;
  std::vector<Trajectory> served_trajs;
  for (size_t k = 0; k < n; ++k) {
    if (!bundle.index->Contains(stream[k].id)) continue;
    served_ids.push_back(stream[k].id);
    served_trajs.push_back(matcher.MatchTrajectory(stream[k].gps));
  }
  for (int64_t i = 0; i < kBaseRows; ++i) {
    if (!bundle.index->Contains(i)) continue;
    served_ids.push_back(i);
    served_trajs.push_back(base[static_cast<size_t>(i)]);
  }
  start::serve::EmbeddingIndex oracle(config.model.d);
  r->Check(oracle
                   .AddBatch(served_ids,
                             bundle.encoder->EmbedAll(
                                 served_trajs, start::eval::EncodeMode::kFull))
                   .ok() &&
               oracle.size() == bundle.index->size(),
           "exact oracle holds the served rows");
  const std::shared_ptr<QueryEngine> final_engine = current();
  int64_t post_failed = 0;
  e2e.recall = RecallAt10(
      QuiescedSearches(*final_engine, side, kRecallQueries, &post_failed),
      oracle);
  r->Check(e2e.recall >= 0.9, "post-swap recall@10 vs exact oracle >= 0.9");
  std::vector<Served> served = log.Take();
  if (served.size() > 32) served.resize(32);
  r->Check(ServedRowsBitwise(served),
           "served embeddings bitwise equal EncodeBatch({t})");
  r->Count(kCorpus + replay_samples.attempted + side_samples.attempted +
               kRecallQueries + all_rounds,
           prefill_failed + replay_samples.failed + stats.total_failed() +
               stats.embed.dropped + stats.upsert.dropped +
               side_samples.failed + post_failed + adapt_stats.rounds_failed);

  // ---- End-to-end metrics ---------------------------------------------------
  // Rounds per second over the least-stolen third of the rounds run under
  // the streams.
  const double median_round = Median(round_s);
  std::vector<double> round_rate, round_steal;
  for (size_t k = 0; k < round_s.size(); ++k) {
    round_rate.push_back(1.0 / round_s[k]);
    round_steal.push_back(cpu.StealCores(round_start[k], round_end[k]));
  }
  e2e.cpu_ms_per_op = Median(round_cpu_s) * 1e3;
  e2e.throughput = LowStealMedian(round_rate, round_steal);
  e2e.search_ms = side_samples.latency_ms;
  ReportEndToEnd(e2e, r);
  if (!o.trace) return;

  // ---- Per-layer metrics (traced run) ---------------------------------------
  std::vector<double> retrain_s, rebuild_s, swap_s;
  for (int64_t k = 0; k < rounds; ++k) {
    const StageClock::Round phases = clock.round(k + 1);
    const uint64_t root = trace::NewId();
    const uint64_t req = static_cast<uint64_t>(k + 1);
    const int64_t start = round_start[static_cast<size_t>(k)];
    const int64_t end = round_end[static_cast<size_t>(k)];
    trace::Record("adapt.trigger", start, phases.retrain_ns, trace::NewId(),
                  root, req);
    trace::Record("adapt.retrain", phases.retrain_ns, phases.rebuild_ns,
                  trace::NewId(), root, req);
    trace::Record("adapt.rebuild", phases.rebuild_ns, phases.swap_ns,
                  trace::NewId(), root, req);
    trace::Record("adapt.swap", phases.swap_ns, end, trace::NewId(), root,
                  req);
    trace::Record("adapt.round", start, end, root, 0, req);
    retrain_s.push_back(
        static_cast<double>(phases.rebuild_ns - phases.retrain_ns) * 1e-9);
    rebuild_s.push_back(
        static_cast<double>(phases.swap_ns - phases.rebuild_ns) * 1e-9);
    swap_s.push_back(static_cast<double>(end - phases.swap_ns) * 1e-9);
  }
  std::vector<PipelineItem> replay_items;
  for (int64_t i = 0; i < replay_samples.attempted; ++i) {
    const size_t k = static_cast<size_t>(kCorpus + i);
    const int64_t seq = items[k].seq;
    const int64_t u = clock.upsert_ns(seq);
    replay_items.push_back(items[k]);
    if (seq < 0 || u == 0) continue;
    const int64_t m = clock.match_ns(seq), e = clock.embed_ns(seq);
    const uint64_t root = trace::NewId();
    trace::Record("pipeline.push", sent_ns[k], items[k].accepted_ns,
                  trace::NewId(), root, k);
    trace::Record("pipeline.match_queue", items[k].accepted_ns, m,
                  trace::NewId(), root, k);
    trace::Record("pipeline.match", m, e, trace::NewId(), root, k);
    trace::Record("pipeline.embed", e, u, trace::NewId(), root, k);
    trace::Record("ingest.item", due_ns[k], u, root, 0, k);
  }
  const std::vector<trace::Span> spans = trace::Collect();

  std::vector<double> encoder_s, index_s;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    const bool loaded = FrozenEncoder::Load(checkpoint, config.model,
                                            city.net.get(), city.transfer.get())
                            .ok();
    const int64_t t1 = NowNs();
    const bool index_loaded = HnswIndex::Load(checkpoint + ".index").ok();
    const int64_t t2 = NowNs();
    if (loaded && index_loaded) {
      encoder_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      index_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    }
  }
  r->Layer("setup.encoder_load_s", Median(encoder_s));
  r->Layer("setup.index_load_s", Median(index_s));
  r->Layer("setup.first_request_ms", Median(first_ms));

  std::vector<start::serve::StreamItem> replayed(
      stream.begin() + kCorpus,
      stream.begin() + kCorpus + replay_samples.attempted);
  ReplayMatching(*city.net, config.stream, replayed, 1, &replay_items, r);
  r->Layer("traj.match_failed", static_cast<double>(stats.match.failed));
  ReportPipeline(clock, replay_items, stats, 0, r);

  start::serve::ServiceStats service = final_engine->service->stats();
  service.requests += retired_stats.requests;
  service.batches += retired_stats.batches;
  service.padded_tokens += retired_stats.padded_tokens;
  service.real_tokens += retired_stats.real_tokens;
  ReportService(spans, service,
                ReplayEncoder(*bundle.encoder, service, side, r), r);
  auto* hnsw = dynamic_cast<HnswIndex*>(bundle.index.get());
  ReportIndex(*bundle.index, hnsw != nullptr ? hnsw->DeadFraction() : 0.0,
              spans, r);

  const double steps_per_round = std::ceil(
      static_cast<double>(kCorpus) /
      static_cast<double>(config.finetune.batch_size)) *
      static_cast<double>(config.finetune.epochs);
  r->Layer("adapt.round_s", median_round);
  r->Layer("adapt.retrain_s", Median(retrain_s));
  r->Layer("adapt.rebuild_s", Median(rebuild_s));
  r->Layer("adapt.swap_s", Median(swap_s));
  r->Layer("core.retrain_steps_per_s", steps_per_round / Median(retrain_s));
  r->Layer("adapt.catch_up_items",
           static_cast<double>(adapt_stats.catch_up_items));
  r->Layer("adapt.rounds_failed",
           static_cast<double>(adapt_stats.rounds_failed));
  r->Layer("adapt.swap_timeouts",
           static_cast<double>(adapt_stats.swap_timeouts));
  r->Layer("process.cpu_busy_cores", cpu.BusyCores());
  r->Layer("host.steal_cores", cpu.StealCores());
  r->Layer("process.threads", static_cast<double>(cpu.MaxThreads()));
  std::vector<double> late = replay_samples.late_ms;
  late.insert(late.end(), side_samples.late_ms.begin(),
              side_samples.late_ms.end());
  r->Layer("gen.late_ms.p99", Percentile(late, 0.99));
  r->Layer("trace.coverage", trace::Coverage(spans));
  trace::WriteRunTrace(o, spans);
  r->Layer("trace.overhead", MeasureTraceOverhead(*final_engine, side_query));
}

}  // namespace perfbench
