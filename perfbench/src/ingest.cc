// Workload `ingest`: GPS streams through StreamPipeline (built from an
// EngineBundle) -- HMM match -> micro-batched embed -> in-order HNSW upsert
// -- on a d=32 f32 checkpoint, into a persisted base index, while a
// fixed-rate side stream of trajectory searches reads the same index. Every
// trajectory is unique, so nothing a cache could reuse repeats.
//
// Phases: a fixed-rate open loop of GPS items (latency from each item's due
// time to its on_ingested callback) with the side search stream, then a
// saturating kBlock push alone, for throughput and CPU per item. The
// saturating phase replays its item pool with each pass shifted in time, so
// it never runs dry and no pushed trajectory repeats.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/embedding_index.h"
#include "serve/hnsw_index.h"
#include "serving.h"
#include "traj/map_matching.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

using start::common::Status;
using start::serve::FrozenEncoder;
using start::serve::HnswIndex;
using start::serve::IndexInterface;
using start::traj::Trajectory;

constexpr int kGrid = 12;
constexpr int64_t kBaseRows = 4000;
constexpr int64_t kStreamIdBase = 1'000'000;
constexpr double kIngestRate = 400.0;  // GPS items/s, open loop
constexpr double kSideRate = 200.0;    // searches/s, open loop
constexpr double kSaturatedPoolRate = 4000.0;  // sizes the item pool
constexpr double kSaturatedCapRate = 25000.0;  // bookkeeping capacity
constexpr int64_t kPassShiftS = 3 * 3600 + 7 * 60;  // per pass over the pool
constexpr double kOpenShare = 0.5;
constexpr int kRateWindows = 20;      // saturated-phase throughput windows
constexpr int64_t kRecallQueries = 256;
constexpr int kSetupTrials = 25;

/// IndexInterface decorator of the traced run: times every insert as an
/// hnsw.insert span under the item's upsert span.
class TimedIndex final : public IndexInterface {
 public:
  TimedIndex(std::shared_ptr<IndexInterface> inner,
             std::function<uint64_t(int64_t)> parent_of)
      : inner_(std::move(inner)), parent_of_(std::move(parent_of)) {}

  int64_t dim() const override { return inner_->dim(); }
  int64_t size() const override { return inner_->size(); }
  bool Contains(int64_t id) const override { return inner_->Contains(id); }

  using IndexInterface::Add;
  Status Add(int64_t id, const float* embedding, int64_t dim) override {
    const int64_t t0 = NowNs();
    Status st = inner_->Add(id, embedding, dim);
    trace::Record("hnsw.insert", t0, NowNs(), trace::NewId(), parent_of_(id),
                  static_cast<uint64_t>(id));
    return st;
  }
  Status AddBatch(const std::vector<int64_t>& ids,
                  const std::vector<float>& rows) override {
    return inner_->AddBatch(ids, rows);
  }
  Status Remove(int64_t id) override { return inner_->Remove(id); }

  using IndexInterface::Query;
  start::common::Result<std::vector<start::serve::Neighbor>> Query(
      const float* query, int64_t dim, int64_t k) const override {
    return inner_->Query(query, dim, k);
  }

 private:
  std::shared_ptr<IndexInterface> inner_;
  std::function<uint64_t(int64_t)> parent_of_;
};

/// What the on_ingested callback saw (written by the pipeline's single
/// finalizer thread, read after Flush/Drain).
struct IngestLog {
  std::vector<std::atomic<int64_t>> done_ns;
  std::vector<int64_t> ids;
  std::vector<start::serve::EmbeddingRow> rows;
  struct Sample {
    int64_t index = 0;
    Trajectory traj;
    std::vector<float> row;
  };
  std::vector<Sample> samples;
  explicit IngestLog(size_t n) : done_ns(n) {
    ids.reserve(n);
    rows.reserve(n);
  }
};

/// Item k of a run, with id kStreamIdBase + k: `stream` as generated, then
/// further passes over its saturating-phase pool stream[open_n..), pass p
/// shifted p * kPassShiftS later in time.
start::serve::StreamItem ItemAt(
    const std::vector<start::serve::StreamItem>& stream, int64_t open_n,
    int64_t k) {
  const auto size = static_cast<int64_t>(stream.size());
  if (k < size) return stream[static_cast<size_t>(k)];
  const int64_t pool = size - open_n;
  const int64_t j = k - open_n;
  start::serve::StreamItem item = stream[static_cast<size_t>(open_n + j % pool)];
  for (auto& point : item.gps.points) point.timestamp += j / pool * kPassShiftS;
  item.id = kStreamIdBase + k;
  return item;
}

/// trace.overhead of the ingest path: saturating kBlock bursts through a
/// pipeline without, then with, the traced run's instrumentation (stage
/// clock hooks, the timed index and its spans), eight 0.4 s bursts in
/// off-on-on-off order. Pushes item(first), item(first + 1), ...
double MeasureIngestOverhead(
    const start::serve::EngineBundle& plain,
    const start::serve::EngineBundle& timed,
    const start::roadnet::RoadNetwork* net,
    const start::serve::StreamConfig& config,
    const start::common::FaultHooks* hooks,
    const std::function<start::serve::StreamItem(int64_t)>& item,
    int64_t first) {
  const bool was_enabled = trace::Enabled();
  start::serve::StreamPipeline off(plain, net, config, nullptr);
  start::serve::StreamPipeline on(timed, net, config, hooks);
  double rate_off = 0.0, rate_on = 0.0;
  int64_t k = first;
  for (int rep = 0; rep < 8; ++rep) {
    const bool traced = rep % 4 == 1 || rep % 4 == 2;
    start::serve::StreamPipeline& pipeline = traced ? on : off;
    trace::SetEnabled(traced);
    const int64_t t0 = NowNs();
    int64_t pushed = 0;
    while (NowNs() < t0 + 400'000'000) {
      if (pipeline.Push(item(k++)).ok()) ++pushed;
    }
    pipeline.Flush();
    const double rate = static_cast<double>(pushed) /
                        (static_cast<double>(NowNs() - t0) * 1e-9);
    (traced ? rate_on : rate_off) += rate;
  }
  trace::SetEnabled(was_enabled);
  return rate_on > 0.0 ? rate_off / rate_on - 1.0 : 0.0;
}

}  // namespace

void RunIngest(const Options& o, Report* r) {
  // ---- Inputs and artifacts (not timed) ------------------------------------
  const double open_s = o.seconds * kOpenShare;
  const double sat_s = o.seconds - open_s;
  const int64_t open_n = static_cast<int64_t>(kIngestRate * open_s);
  const int64_t pool_n = static_cast<int64_t>(kSaturatedPoolRate * sat_s);
  const int64_t side_n =
      static_cast<int64_t>(kSideRate * open_s) + kRecallQueries + 16;
  // GPS simulation drops trips too short for four fixes; over-generate.
  const int64_t stream_trips = (open_n + pool_n) * 11 / 10 + 64;
  City city = MakeCity(kGrid, kBaseRows + side_n + stream_trips, 160, o.seed);
  start::common::Rng rng(o.seed * 7919 + 21);
  const std::vector<Trajectory> side = TakeTrips(&city, side_n);
  const std::vector<Trajectory> base = TakeTrips(&city, kBaseRows);
  std::vector<start::serve::StreamItem> stream =
      MakeGpsItems(city, TakeTrips(&city, stream_trips), kStreamIdBase, &rng);
  if (static_cast<int64_t>(stream.size()) < open_n + pool_n ||
      static_cast<int64_t>(side.size()) != side_n) {
    r->Check(false, "ingest inputs generated");
    return;
  }
  stream.resize(static_cast<size_t>(open_n + pool_n));
  const auto item_at = [&](int64_t k) { return ItemAt(stream, open_n, k); };

  const start::core::StartConfig config = ModelConfig(32);
  const std::string checkpoint = o.out_dir + "/ingest_model.sttn";
  const std::string index_path = checkpoint + ".index";
  std::vector<int64_t> base_ids(static_cast<size_t>(kBaseRows));
  for (int64_t i = 0; i < kBaseRows; ++i) base_ids[static_cast<size_t>(i)] = i;
  std::vector<float> base_rows;
  {
    if (!WriteCheckpoint(checkpoint, config, city, o.seed)) {
      r->Check(false, "ingest checkpoint written");
      return;
    }
    auto encoder = FrozenEncoder::Load(checkpoint, config, city.net.get(),
                                       city.transfer.get());
    if (!encoder.ok()) {
      r->Check(false, "ingest checkpoint loads");
      return;
    }
    base_rows = encoder.value()->EmbedAll(base, start::eval::EncodeMode::kFull);
    HnswIndex index(config.d);
    if (!index.AddBatch(base_ids, base_rows).ok() ||
        !index.Save(index_path).ok()) {
      r->Check(false, "persisted base index built");
      return;
    }
  }

  // Bookkeeping for up to n items, allocated before set-up so the peak RSS
  // leaves it out. Span ids are fixed up front so the index decorator can
  // parent its inserts.
  const auto n = static_cast<size_t>(
      open_n + static_cast<int64_t>(kSaturatedCapRate * sat_s));
  std::vector<uint64_t> root_id(n), upsert_id(n);
  for (size_t i = 0; i < n; ++i) {
    root_id[i] = trace::NewId();
    upsert_id[i] = trace::NewId();
  }
  const auto parent_of = [&](int64_t id) -> uint64_t {
    const int64_t i = id - kStreamIdBase;
    return i >= 0 && i < static_cast<int64_t>(n) ? upsert_id[static_cast<size_t>(i)]
                                                 : 0;
  };

  // ---- Set-up: artifacts on disk -> first request answered -----------------
  const start::serve::StreamConfig stream_config = PipelineConfig();
  StageClock clock(static_cast<int64_t>(n));
  const start::common::FaultHooks* hooks = o.trace ? clock.hooks() : nullptr;
  IngestLog ingested(n);
  std::vector<PipelineItem> items(n);
  std::vector<int64_t> due_ns(n, 0), sent_ns(n, 0);
  double rss_base_mb = 0.0;
  EndToEnd e2e;
  std::vector<double> encoder_s, index_s, first_ms;
  std::shared_ptr<HnswIndex> hnsw;
  std::shared_ptr<QueryEngine> engine;
  std::unique_ptr<start::serve::StreamPipeline> pipeline;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    engine.reset();
    pipeline.reset();
    hnsw.reset();
    // The peak covers the set-up that serves the run: earlier trials leave
    // freed memory in the allocator's per-thread arenas, handed back here.
    if (trial == kSetupTrials - 1) rss_base_mb = ResetPeakRss();
    // Let the previous trial's threads go idle (OpenMP workers spin for a
    // while after a parallel region), so their tail is not charged here.
    SleepUntilNs(NowNs() + 20'000'000);
    const uint64_t root = trace::NewId();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    auto encoder = FrozenEncoder::Load(checkpoint, config, city.net.get(),
                                       city.transfer.get());
    const int64_t t1 = NowNs();
    auto loaded = HnswIndex::Load(index_path);
    const int64_t t2 = NowNs();
    if (!encoder.ok() || !loaded.ok()) {
      r->Check(false, "serving artifacts load");
      return;
    }
    hnsw = std::move(loaded.value());
    start::serve::EngineBundle bundle;
    bundle.encoder = std::move(encoder.value());
    bundle.index = hnsw;
    if (o.trace) bundle.index = std::make_shared<TimedIndex>(hnsw, parent_of);
    pipeline = std::make_unique<start::serve::StreamPipeline>(
        bundle, city.net.get(), stream_config, hooks);
    engine = MakeQueryEngine(bundle, SideSearchService());
    const uint64_t first = trace::NewId();
    const bool ok = SearchOnce(*engine, side[0], first, 0, nullptr);
    const int64_t t3 = NowNs();
    r->Check(ok, "first request answered");
    if (!ok) return;
    trace::Record("setup.encoder_load", t0, t1, trace::NewId(), root, 0);
    trace::Record("setup.index_load", t1, t2, trace::NewId(), root, 0);
    trace::Record("setup.first_request", t2, t3, first, root, 0);
    trace::Record("setup", t0, t3, root, 0, 0);
    e2e.setup_wall_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    e2e.setup_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    encoder_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    index_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    first_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  }

  pipeline->SetOnIngested([&](int64_t id, const Trajectory& traj,
                              const start::serve::EmbeddingRow& row) {
    const int64_t i = id - kStreamIdBase;
    ingested.done_ns[static_cast<size_t>(i)].store(NowNs(),
                                                   std::memory_order_relaxed);
    ingested.ids.push_back(id);
    ingested.rows.push_back(row);
    if (i % 97 == 0 && ingested.samples.size() < 64) {
      ingested.samples.push_back({i, traj, row.ToVector()});
    }
  });

  int64_t next_seq = 0;
  const auto push = [&](int64_t i, int64_t due) {
    const size_t k = static_cast<size_t>(i);
    sent_ns[k] = NowNs();
    due_ns[k] = due;
    const bool ok = pipeline->Push(item_at(i)).ok();
    if (ok) items[k] = {next_seq++, NowNs(), -1.0};
    return ok;
  };
  const auto side_query = [&](int64_t i) -> const Trajectory& {
    return side[static_cast<size_t>(i) % side.size()];
  };
  const auto current = [&] { return engine; };
  ServedLog log(16);
  int64_t queue_depth_max = 0;
  const auto sample_depth = [&] {
    if (!o.trace) return;
    const auto s = pipeline->stats();
    queue_depth_max =
        std::max(queue_depth_max, s.match.queue_depth + s.embed.queue_depth +
                                      s.upsert.queue_depth);
  };

  // ---- Phase 1: open-loop ingest + side searches ---------------------------
  const int64_t a0 = NowNs() + 20'000'000;
  const int64_t a1 = a0 + static_cast<int64_t>(open_s * 1e9);
  StreamSamples ingest_samples, side_a;
  CpuMeter open_cpu;
  RunMetered(
      &open_cpu,
      [&] {
        std::thread side_stream([&] {
          side_a = RunSearchStream("search.side", kSideRate, a0, a1, 4,
                                   side_query, current, &log);
        });
        ingest_samples = RunOpenLoop(kIngestRate, a0, a1, 1,
                                     /*record_latency=*/false, push);
        side_stream.join();
        pipeline->Flush();
      },
      sample_depth);
  // The saturating phase grows the index by however many items the host lets
  // it ingest, so the peak is read after the fixed-rate phase.
  e2e.rss_mb = PeakRssMb() - rss_base_mb;
  for (int64_t i = 0; i < open_n; ++i) {
    const size_t k = static_cast<size_t>(i);
    const int64_t done = ingested.done_ns[k].load(std::memory_order_relaxed);
    e2e.latency_ms.push_back(done > 0
                                 ? static_cast<double>(done - due_ns[k]) * 1e-6
                                 : static_cast<double>(a1 - a0) * 1e-6);
  }

  // ---- Phase 2: saturating kBlock ingest alone ------------------------------
  // Nothing else runs, so CPU per ingested item is the pipeline's own.
  int64_t sat_pushed = 0, sat_failed = 0;
  CpuMeter cpu;
  const int64_t b0 = NowNs();
  const int64_t b1 = b0 + static_cast<int64_t>(sat_s * 1e9);
  RunMetered(
      &cpu,
      [&] {
        for (int64_t i = open_n;
             i < static_cast<int64_t>(n) && NowNs() < b1; ++i) {
          ++sat_pushed;
          if (!push(i, NowNs())) ++sat_failed;
        }
        pipeline->Flush();
      },
      sample_depth);
  if (open_n + sat_pushed == static_cast<int64_t>(n)) {
    std::fprintf(stderr, "perfbench: saturating phase hit its %zu-item cap; "
                         "raise kSaturatedCapRate\n", n);
  }
  std::vector<int64_t> sat_done;
  for (int64_t i = open_n; i < open_n + sat_pushed; ++i) {
    sat_done.push_back(
        ingested.done_ns[static_cast<size_t>(i)].load(std::memory_order_relaxed));
  }
  e2e.throughput =
      LowStealRate(sat_done, b0, b1, kRateWindows, cpu, "saturated ingest");
  pipeline->Drain();
  const start::serve::PipelineStats stats = pipeline->stats();

  // ---- Correctness ---------------------------------------------------------
  r->Check(stats.in_flight == 0 &&
               stats.accepted == stats.ingested() + stats.total_failed() +
                                     stats.embed.dropped + stats.upsert.dropped,
           "accepted == ingested + failed + dropped");
  start::serve::EmbeddingIndex oracle(config.d);
  bool oracle_ok = oracle.AddBatch(base_ids, base_rows).ok();
  for (size_t k = 0; k < ingested.ids.size(); ++k) {
    oracle_ok = oracle_ok &&
                oracle.Add(ingested.ids[k], ingested.rows[k].data(),
                           ingested.rows[k].dim())
                    .ok();
  }
  r->Check(oracle_ok && oracle.size() == hnsw->size(),
           "exact oracle holds the served rows");
  int64_t post_failed = 0;
  e2e.recall = RecallAt10(
      QuiescedSearches(*engine, side, kRecallQueries, &post_failed), oracle);
  r->Check(e2e.recall >= 0.9, "served recall@10 vs exact oracle >= 0.9");
  std::vector<Served> served = log.Take();
  if (served.size() > 32) served.resize(32);
  r->Check(ServedRowsBitwise(served),
           "served search embeddings bitwise equal EncodeBatch({t})");
  {
    const start::traj::HmmMapMatcher matcher(city.net.get(),
                                             stream_config.matcher);
    const FrozenEncoder& encoder = *engine->encoder;
    bool same = !ingested.samples.empty();
    for (const auto& s : ingested.samples) {
      const Trajectory t = matcher.MatchTrajectory(item_at(s.index).gps);
      const auto ref =
          encoder.EncodeBatch({&t}, start::eval::EncodeMode::kFull).Contiguous();
      same = same && t.roads == s.traj.roads &&
             std::equal(s.row.begin(), s.row.end(), ref.data(),
                        [](float a, float b) {
                          return std::memcmp(&a, &b, sizeof(float)) == 0;
                        });
    }
    r->Check(same, "ingested embeddings bitwise equal match + EncodeBatch");
  }
  r->Count(ingest_samples.attempted + sat_pushed + side_a.attempted +
               kRecallQueries,
           ingest_samples.failed + sat_failed + stats.total_failed() +
               stats.embed.dropped + stats.upsert.dropped + side_a.failed +
               post_failed);

  // ---- End-to-end metrics ---------------------------------------------------
  const auto sat_ingested = static_cast<double>(
      std::count_if(sat_done.begin(), sat_done.end(),
                    [](int64_t t) { return t > 0; }));
  e2e.cpu_ms_per_op = cpu.CpuSeconds() * 1e3 / std::max(1.0, sat_ingested);
  e2e.search_ms = side_a.latency_ms;
  ReportEndToEnd(e2e, r);
  if (!o.trace) return;

  // ---- Per-layer metrics (traced run) ---------------------------------------
  for (int64_t i = 0; i < open_n; ++i) {
    const size_t k = static_cast<size_t>(i);
    const int64_t seq = items[k].seq;
    const int64_t done = ingested.done_ns[k].load(std::memory_order_relaxed);
    if (seq < 0 || done == 0) continue;
    const int64_t m = clock.match_ns(seq), e = clock.embed_ns(seq),
                  u = clock.upsert_ns(seq);
    const uint64_t req = static_cast<uint64_t>(i);
    trace::Record("pipeline.push", sent_ns[k], items[k].accepted_ns,
                  trace::NewId(), root_id[k], req);
    trace::Record("pipeline.match_queue", items[k].accepted_ns, m,
                  trace::NewId(), root_id[k], req);
    trace::Record("pipeline.match", m, e, trace::NewId(), root_id[k], req);
    trace::Record("pipeline.embed", e, u, trace::NewId(), root_id[k], req);
    trace::Record("pipeline.upsert", u, done, upsert_id[k], root_id[k], req);
    trace::Record("ingest.item", due_ns[k], done, root_id[k], 0, req);
  }
  const std::vector<trace::Span> spans = trace::Collect();
  r->Layer("setup.encoder_load_s", Median(encoder_s));
  r->Layer("setup.index_load_s", Median(index_s));
  r->Layer("setup.first_request_ms", Median(first_ms));
  ReplayMatching(*city.net, stream_config, stream, 4, &items, r);
  r->Layer("traj.match_failed", static_cast<double>(stats.match.failed));
  const std::vector<PipelineItem> open_items(items.begin(),
                                             items.begin() + open_n);
  ReportPipeline(clock, open_items, stats, queue_depth_max, r);
  const start::serve::ServiceStats service = engine->service->stats();
  ReportService(spans, service,
                ReplayEncoder(*engine->encoder, service, side, r), r);
  ReportIndex(*hnsw, hnsw->DeadFraction(), spans, r);
  const std::vector<double> insert_ms = trace::DurationsMs(spans, "hnsw.insert");
  r->Layer("hnsw.insert_us.p50", Percentile(insert_ms, 0.5) * 1e3);
  r->Layer("hnsw.insert_us.p99", Percentile(insert_ms, 0.99) * 1e3);
  r->Layer("process.cpu_busy_cores", cpu.BusyCores());
  r->Layer("host.steal_cores", cpu.StealCores());
  r->Layer("process.threads", static_cast<double>(cpu.MaxThreads()));
  std::vector<double> late = ingest_samples.late_ms;
  late.insert(late.end(), side_a.late_ms.begin(), side_a.late_ms.end());
  r->Layer("gen.late_ms.p99", Percentile(late, 0.99));
  r->Layer("trace.coverage", trace::Coverage(spans));
  trace::WriteRunTrace(o, spans);
  // The larger of the two traced-only costs: spans on the search path, and
  // the stage clock and timed index on the ingest path.
  start::serve::EngineBundle plain, timed;
  plain.encoder = timed.encoder = engine->encoder;
  plain.index = hnsw;
  timed.index = engine->index;
  const double search_overhead = MeasureTraceOverhead(*engine, side_query);
  const double ingest_overhead =
      MeasureIngestOverhead(plain, timed, city.net.get(), stream_config, hooks,
                            item_at, static_cast<int64_t>(n));
  std::fprintf(stderr, "trace overhead: search %.4f, ingest %.4f\n",
               search_overhead, ingest_overhead);
  r->Layer("trace.overhead", std::max(search_overhead, ingest_overhead));
}

}  // namespace perfbench
