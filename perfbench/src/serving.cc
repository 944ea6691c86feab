#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "traj/map_matching.h"

namespace perfbench {

using start::serve::EmbeddingRow;
using start::traj::Trajectory;

void ServedLog::Offer(int64_t i, Served served) {
  if (i % every_ != 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  served_.push_back(std::move(served));
}

std::vector<Served> ServedLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(served_);
}

start::serve::StreamConfig PipelineConfig() {
  start::serve::StreamConfig config;
  config.match_workers = 2;
  config.embed_workers = 2;
  config.service.max_batch_size = 16;
  config.service.batch_deadline_us = 100;
  return config;
}

start::serve::ServiceConfig SideSearchService() {
  start::serve::ServiceConfig config;
  config.max_batch_size = 16;
  config.batch_deadline_us = 100;
  return config;
}

std::shared_ptr<QueryEngine> MakeQueryEngine(
    const start::serve::EngineBundle& bundle,
    const start::serve::ServiceConfig& config) {
  auto engine = std::make_shared<QueryEngine>();
  engine->encoder = bundle.encoder;
  engine->index = bundle.index;
  engine->service = std::make_unique<start::serve::EmbeddingService>(
      bundle.encoder.get(), config);
  return engine;
}

namespace {

// Reports the first few failed requests with their cause.
bool Failed(const start::common::Status& status) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1, std::memory_order_relaxed) < 5) {
    std::fprintf(stderr, "search request failed: %s\n",
                 status.ToString().c_str());
  }
  return false;
}

}  // namespace

bool SearchOnce(const QueryEngine& engine, const Trajectory& t, uint64_t root,
                uint64_t request, Served* served) {
  const int64_t t0 = NowNs();
  auto future = engine.service->Encode(t);
  if (!future.ok()) return Failed(future.status());
  const EmbeddingRow row = future.value().get();
  const int64_t t1 = NowNs();
  auto hits = engine.index->Query(row.data(), row.dim(), kTopK);
  const int64_t t2 = NowNs();
  if (!hits.ok()) return Failed(hits.status());
  if (hits.value().empty()) {
    return Failed(start::common::Status::NotFound("empty top-10"));
  }
  if (trace::Enabled()) {
    trace::Record("service.encode", t0, t1, trace::NewId(), root, request);
    trace::Record("hnsw.query", t1, t2, trace::NewId(), root, request);
  }
  if (served != nullptr) {
    served->query = &t;
    served->encoder = engine.encoder;
    served->row = row.ToVector();
    served->ids.clear();
    for (const auto& nb : hits.value()) served->ids.push_back(nb.id);
  }
  return true;
}

StreamSamples RunSearchStream(
    const char* root_name, double rate, int64_t start_ns, int64_t end_ns,
    int clients, const std::function<const Trajectory&(int64_t)>& query,
    const std::function<std::shared_ptr<QueryEngine>()>& engine,
    ServedLog* log) {
  return RunOpenLoop(
      rate, start_ns, end_ns, clients, /*record_latency=*/true,
      [&](int64_t i, int64_t due) {
        const uint64_t root = trace::NewId();
        Served served;
        const bool ok = SearchOnce(*engine(), query(i), root,
                                   static_cast<uint64_t>(i), &served);
        if (ok && log != nullptr) log->Offer(i, std::move(served));
        trace::Record(root_name, due, NowNs(), root, 0,
                      static_cast<uint64_t>(i));
        return ok;
      });
}

std::vector<int64_t> RunSearchClosedLoop(
    int clients, int64_t end_ns,
    const std::function<const Trajectory&(int64_t)>& query,
    const QueryEngine& engine, ServedLog* log, int64_t* failed) {
  std::atomic<int64_t> next{0}, bad{0};
  std::vector<std::vector<int64_t>> done(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < end_ns) {
        const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        const uint64_t root = trace::NewId();
        const int64_t t0 = NowNs();
        Served served;
        const bool ok = SearchOnce(engine, query(i), root,
                                   static_cast<uint64_t>(i), &served);
        const int64_t t1 = NowNs();
        if (ok) {
          done[static_cast<size_t>(c)].push_back(t1);
          if (log != nullptr) log->Offer(i, std::move(served));
        } else {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
        trace::Record("search.closed", t0, t1, root, 0,
                      static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  *failed += bad.load();
  std::vector<int64_t> all;
  for (const auto& d : done) all.insert(all.end(), d.begin(), d.end());
  return all;
}

std::vector<Served> QuiescedSearches(const QueryEngine& engine,
                                     const std::vector<Trajectory>& queries,
                                     int64_t n, int64_t* failed) {
  std::vector<Served> served;
  for (int64_t q = 0; q < n; ++q) {
    Served s;
    if (SearchOnce(engine, queries[queries.size() - 1 - static_cast<size_t>(q)],
                   trace::NewId(), static_cast<uint64_t>(q), &s)) {
      served.push_back(std::move(s));
    } else {
      ++*failed;
    }
  }
  return served;
}

void ReportEndToEnd(const EndToEnd& e, Report* report) {
  report->EndToEnd("setup_s", Median(e.setup_cpu_s), "s");
  report->EndToEnd("cpu_ms_per_op", e.cpu_ms_per_op, "ms");
  report->EndToEnd("recall_at_10", e.recall, "ratio");
  report->EndToEnd(
      "ok_ratio",
      1.0 - static_cast<double>(report->failed()) /
                static_cast<double>(std::max<int64_t>(1, report->attempted())),
      "ratio");
  report->EndToEnd("rss_peak_mb", e.rss_mb, "MB");
  report->Layer("wall.setup_s", Median(e.setup_wall_s));
  report->Layer("wall.throughput", e.throughput);
  report->Layer("wall.latency_p50_ms", WindowedPercentile(e.latency_ms, 0.5));
  report->Layer("wall.latency_p99_ms", WindowedPercentile(e.latency_ms, 0.99));
  report->Layer("wall.search_p50_ms", WindowedPercentile(e.search_ms, 0.5));
  report->Layer("wall.search_p99_ms", WindowedPercentile(e.search_ms, 0.99));
}

double RecallAt10(const std::vector<Served>& served,
                  const start::serve::IndexInterface& oracle) {
  if (served.empty()) return 0.0;
  double sum = 0.0;
  for (const Served& s : served) {
    auto truth = oracle.Query(s.row.data(), static_cast<int64_t>(s.row.size()),
                              kTopK);
    if (!truth.ok() || truth.value().empty()) return 0.0;
    int64_t overlap = 0;
    for (const auto& nb : truth.value()) {
      overlap += std::count(s.ids.begin(), s.ids.end(), nb.id);
    }
    sum += static_cast<double>(overlap) /
           static_cast<double>(truth.value().size());
  }
  return sum / static_cast<double>(served.size());
}

bool ServedRowsBitwise(const std::vector<Served>& served) {
  if (served.empty()) return false;
  for (const Served& s : served) {
    const start::tensor::Tensor ref =
        s.encoder->EncodeBatch({s.query}, start::eval::EncodeMode::kFull)
            .Contiguous();
    if (ref.dim(1) != static_cast<int64_t>(s.row.size()) ||
        std::memcmp(ref.data(), s.row.data(), s.row.size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

namespace {

Trajectory Prefix(const Trajectory& t, int64_t n) {
  Trajectory out = t;
  out.roads.resize(static_cast<size_t>(n));
  out.timestamps.resize(static_cast<size_t>(n));
  out.end_time = t.size() > n ? t.timestamps[static_cast<size_t>(n)]
                              : t.end_time;
  return out;
}

}  // namespace

double ReplayEncoder(const start::serve::FrozenEncoder& encoder,
                     const start::serve::ServiceStats& stats,
                     const std::vector<Trajectory>& pool, Report* report) {
  if (stats.batches == 0 || stats.requests == 0) return 0.0;
  const int64_t rows = std::max<int64_t>(
      1, (stats.requests + stats.batches / 2) / stats.batches);
  const int64_t len = std::clamp<int64_t>(
      (stats.padded_tokens + stats.requests / 2) / stats.requests, 1,
      encoder.max_len());
  std::vector<Trajectory> batch;
  for (const Trajectory& t : pool) {
    if (t.size() >= len) batch.push_back(Prefix(t, len));
    if (static_cast<int64_t>(batch.size()) == rows) break;
  }
  if (batch.empty()) return 0.0;
  while (static_cast<int64_t>(batch.size()) < rows) batch.push_back(batch[0]);
  std::vector<const Trajectory*> ptrs;
  for (const Trajectory& t : batch) ptrs.push_back(&t);
  std::vector<double> ms;
  for (int rep = 0; rep < 25; ++rep) {
    const int64_t t0 = NowNs();
    encoder.EncodeBatch(ptrs, start::eval::EncodeMode::kFull);
    ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  const double batch_ms = Median(ms);
  const auto& c = encoder.config();
  const double b = static_cast<double>(rows), l = static_cast<double>(len);
  const double d = static_cast<double>(c.d);
  const double ffn = static_cast<double>(c.FfnDim());
  // Per layer: QKV + output projections, FFN, attention scores + context.
  const double flop = static_cast<double>(c.encoder_layers) *
                      (8.0 * b * l * d * d + 4.0 * b * l * d * ffn +
                       4.0 * b * l * l * d);
  report->Layer("encoder.batch_ms.p50", batch_ms);
  report->Layer("encoder.us_per_token", batch_ms * 1e3 / (b * l));
  report->Layer("encoder.gflop_per_call", flop * 1e-9);
  report->Layer("encoder.gflops_achieved", flop * 1e-9 / (batch_ms * 1e-3));
  return batch_ms;
}

void ReportService(const std::vector<trace::Span>& spans,
                   const start::serve::ServiceStats& stats, double batch_ms,
                   Report* report) {
  std::vector<double> wait_ms = trace::DurationsMs(spans, "service.encode");
  for (double& w : wait_ms) w = std::max(0.0, w - batch_ms);
  report->Layer("service.batches", static_cast<double>(stats.batches));
  report->Layer("service.batch_rows.mean", stats.coalescing());
  report->Layer("service.padding_efficiency", stats.padding_efficiency());
  report->Layer("service.wait_ms.p50", Percentile(wait_ms, 0.5));
  report->Layer("service.wait_ms.p99", Percentile(wait_ms, 0.99));
}

StageClock::StageClock(int64_t max_seq)
    : match_(static_cast<size_t>(max_seq)),
      embed_(static_cast<size_t>(max_seq)),
      upsert_(static_cast<size_t>(max_seq)) {
  hooks_.before_stage = [this](const char* stage, int64_t seq) {
    Stamp(stage, seq);
    return start::common::Status::OK();
  };
}

int64_t StageClock::At(const std::vector<std::atomic<int64_t>>& v,
                       int64_t seq) {
  if (seq < 0 || seq >= static_cast<int64_t>(v.size())) return 0;
  return v[static_cast<size_t>(seq)].load(std::memory_order_relaxed);
}

void StageClock::Stamp(const char* stage, int64_t seq) {
  const int64_t now = NowNs();
  const auto stamp = [&](std::vector<std::atomic<int64_t>>* v) {
    if (seq >= 0 && seq < static_cast<int64_t>(v->size())) {
      (*v)[static_cast<size_t>(seq)].store(now, std::memory_order_relaxed);
    }
  };
  if (std::strcmp(stage, "match") == 0) {
    stamp(&match_);
  } else if (std::strcmp(stage, "embed") == 0) {
    stamp(&embed_);
  } else if (std::strcmp(stage, "upsert") == 0) {
    stamp(&upsert_);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    Round& r = rounds_[seq];
    if (std::strcmp(stage, "retrain") == 0) r.retrain_ns = now;
    if (std::strcmp(stage, "rebuild") == 0) r.rebuild_ns = now;
    if (std::strcmp(stage, "swap") == 0) r.swap_ns = now;
  }
}

StageClock::Round StageClock::round(int64_t round) {
  std::lock_guard<std::mutex> lock(mu_);
  return rounds_[round];
}

void ReportPipeline(const StageClock& clock,
                    const std::vector<PipelineItem>& items,
                    const start::serve::PipelineStats& stats,
                    int64_t queue_depth_max, Report* report) {
  std::vector<double> match_wait, embed_wait, upsert_wait;
  const double embed_service_ms = stats.embed.p50_ms;
  for (const PipelineItem& it : items) {
    if (it.seq < 0) continue;
    const int64_t m = clock.match_ns(it.seq), e = clock.embed_ns(it.seq),
                  u = clock.upsert_ns(it.seq);
    if (m == 0 || e == 0 || u == 0) continue;
    match_wait.push_back(
        std::max(0.0, static_cast<double>(m - it.accepted_ns) * 1e-6));
    if (it.match_ms >= 0.0) {
      embed_wait.push_back(std::max(
          0.0, static_cast<double>(e - m) * 1e-6 - it.match_ms));
    }
    upsert_wait.push_back(std::max(
        0.0, static_cast<double>(u - e) * 1e-6 - embed_service_ms));
  }
  report->Layer("pipeline.match_wait_ms.p50", Percentile(match_wait, 0.5));
  report->Layer("pipeline.match_wait_ms.p99", Percentile(match_wait, 0.99));
  report->Layer("pipeline.embed_wait_ms.p50", Percentile(embed_wait, 0.5));
  report->Layer("pipeline.embed_wait_ms.p99", Percentile(embed_wait, 0.99));
  report->Layer("pipeline.upsert_wait_ms.p50", Percentile(upsert_wait, 0.5));
  report->Layer("pipeline.upsert_wait_ms.p99", Percentile(upsert_wait, 0.99));
  report->Layer("pipeline.embed_ms.p50", stats.embed.p50_ms);
  report->Layer("pipeline.embed_ms.p95", stats.embed.p95_ms);
  report->Layer("pipeline.upsert_ms.p50", stats.upsert.p50_ms);
  report->Layer("pipeline.upsert_ms.p95", stats.upsert.p95_ms);
  report->Layer("pipeline.retried",
                static_cast<double>(stats.match.retried + stats.embed.retried +
                                    stats.upsert.retried));
  report->Layer("pipeline.dropped", static_cast<double>(stats.total_dropped()));
  report->Layer("pipeline.queue_depth.max",
                static_cast<double>(queue_depth_max));
}

void ReplayMatching(const start::roadnet::RoadNetwork& net,
                    const start::serve::StreamConfig& config,
                    const std::vector<start::serve::StreamItem>& stream,
                    int64_t stride, std::vector<PipelineItem>* items,
                    Report* report) {
  const start::traj::HmmMapMatcher matcher(&net, config.matcher);
  std::vector<double> ms;
  double points = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    points += static_cast<double>(stream[i].gps.points.size());
    if (static_cast<int64_t>(i) % stride != 0) continue;
    const int64_t t0 = NowNs();
    const Trajectory t = matcher.MatchTrajectory(stream[i].gps);
    const double elapsed = static_cast<double>(NowNs() - t0) * 1e-6;
    ms.push_back(elapsed);
    if (i < items->size()) (*items)[i].match_ms = elapsed;
  }
  report->Layer("traj.match_ms.p50", Percentile(ms, 0.5));
  report->Layer("traj.match_ms.p99", Percentile(ms, 0.99));
  report->Layer("traj.gps_points.mean",
                stream.empty() ? 0.0
                               : points / static_cast<double>(stream.size()));
}

void ReportIndex(const start::serve::IndexInterface& index, double dead,
                 const std::vector<trace::Span>& spans, Report* report) {
  std::vector<double> query_ms = trace::DurationsMs(spans, "hnsw.query");
  report->Layer("hnsw.query_us.p50", Percentile(query_ms, 0.5) * 1e3);
  report->Layer("hnsw.query_us.p99", Percentile(query_ms, 0.99) * 1e3);
  report->Layer("hnsw.rows", static_cast<double>(index.size()));
  report->Layer("hnsw.dead_fraction", dead);
}

double MeasureTraceOverhead(
    const QueryEngine& engine,
    const std::function<const Trajectory&(int64_t)>& query) {
  const bool was_enabled = trace::Enabled();
  double rate_off = 0.0, rate_on = 0.0;
  int64_t failed = 0;
  // off, on, on, off, ... so slow drift in machine speed cancels out.
  for (int rep = 0; rep < 8; ++rep) {
    const bool on = rep % 4 == 1 || rep % 4 == 2;
    trace::SetEnabled(on);
    const int64_t t0 = NowNs();
    const size_t done = RunSearchClosedLoop(4, t0 + 400'000'000, query, engine,
                                            nullptr, &failed)
                            .size();
    const double rate =
        static_cast<double>(done) / (static_cast<double>(NowNs() - t0) * 1e-9);
    (on ? rate_on : rate_off) += rate;
  }
  trace::SetEnabled(was_enabled);
  return rate_on > 0.0 ? rate_off / rate_on - 1.0 : 0.0;
}

}  // namespace perfbench
