#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

// Per-layer metrics and their units. Every workload reports all of them;
// a layer off the workload's path stays 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"wall.setup_s", "s"},
      {"wall.throughput", "1/s"},
      {"wall.latency_p50_ms", "ms"},
      {"wall.latency_p99_ms", "ms"},
      {"wall.search_p50_ms", "ms"},
      {"wall.search_p99_ms", "ms"},
      {"setup.encoder_load_s", "s"},
      {"setup.index_load_s", "s"},
      {"setup.first_request_ms", "ms"},
      {"traj.match_ms.p50", "ms"},
      {"traj.match_ms.p99", "ms"},
      {"traj.gps_points.mean", "count"},
      {"traj.match_failed", "count"},
      {"pipeline.match_wait_ms.p50", "ms"},
      {"pipeline.match_wait_ms.p99", "ms"},
      {"pipeline.embed_wait_ms.p50", "ms"},
      {"pipeline.embed_wait_ms.p99", "ms"},
      {"pipeline.upsert_wait_ms.p50", "ms"},
      {"pipeline.upsert_wait_ms.p99", "ms"},
      {"pipeline.embed_ms.p50", "ms"},
      {"pipeline.embed_ms.p95", "ms"},
      {"pipeline.upsert_ms.p50", "ms"},
      {"pipeline.upsert_ms.p95", "ms"},
      {"pipeline.retried", "count"},
      {"pipeline.dropped", "count"},
      {"pipeline.queue_depth.max", "count"},
      {"service.wait_ms.p50", "ms"},
      {"service.wait_ms.p99", "ms"},
      {"service.batch_rows.mean", "count"},
      {"service.padding_efficiency", "ratio"},
      {"service.batches", "count"},
      {"encoder.batch_ms.p50", "ms"},
      {"encoder.us_per_token", "us"},
      {"encoder.gflop_per_call", "GFLOP"},
      {"encoder.gflops_achieved", "GFLOP/s"},
      {"hnsw.query_us.p50", "us"},
      {"hnsw.query_us.p99", "us"},
      {"hnsw.insert_us.p50", "us"},
      {"hnsw.insert_us.p99", "us"},
      {"hnsw.rows", "count"},
      {"hnsw.dead_fraction", "ratio"},
      {"adapt.round_s", "s"},
      {"adapt.retrain_s", "s"},
      {"adapt.rebuild_s", "s"},
      {"adapt.swap_s", "s"},
      {"core.retrain_steps_per_s", "1/s"},
      {"adapt.catch_up_items", "count"},
      {"adapt.rounds_failed", "count"},
      {"adapt.swap_timeouts", "count"},
      {"process.cpu_busy_cores", "cores"},
      {"process.threads", "count"},
      {"host.steal_cores", "cores"},
      {"gen.late_ms.p99", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kMetrics;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

const auto kProcessStart = std::chrono::steady_clock::now();

}  // namespace

Report::Report() {
  for (const auto& [name, unit] : LayerMetrics()) layer_[name] = {0.0, unit};
}

void Report::EndToEnd(const std::string& name, double value,
                      const char* unit) {
  e2e_[name] = {value, unit};
}

void Report::Layer(const std::string& name, double value) {
  auto it = layer_.find(name);
  if (it == layer_.end()) {
    std::fprintf(stderr, "perfbench: undeclared per-layer metric %s\n",
                 name.c_str());
    correct_ = false;
    return;
  }
  it->second.value = value;
}

void Report::Check(bool ok, const std::string& what) {
  std::fprintf(stderr, "check %-48s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) correct_ = false;
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ResultJson(bool traced) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : traced ? layer_ : e2e_) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << FormatNumber(v.value) << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string Report::FullJson(const std::string& env) const {
  std::ostringstream os;
  os << "{\n  \"environment\": " << env << ",\n  \"correct\": "
     << (correct_ ? "true" : "false") << ",\n  \"attempted\": " << attempted_
     << ",\n  \"failed\": " << failed_ << ",\n";
  for (int pass = 0; pass < 2; ++pass) {
    os << (pass == 0 ? "  \"end_to_end\": {" : "  \"per_layer\": {");
    bool first = true;
    for (const auto& [name, v] : pass == 0 ? e2e_ : layer_) {
      os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"value\": "
         << FormatNumber(v.value) << ", \"unit\": \"" << v.unit << "\"}";
      first = false;
    }
    os << (pass == 0 ? "\n  },\n" : "\n  }\n");
  }
  os << "}\n";
  return os.str();
}

// ---- Clock and statistics ---------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double LowStealMedian(const std::vector<double>& rates,
                      const std::vector<double>& steal) {
  std::vector<size_t> order(rates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<double> kept;
  for (size_t i = 0; i < (order.size() + 2) / 3; ++i) {
    kept.push_back(rates[order[i]]);
  }
  return Median(kept);
}

double LowStealRate(const std::vector<int64_t>& done_ns, int64_t start_ns,
                    int64_t end_ns, int windows, const CpuMeter& meter,
                    const char* label) {
  const double width = static_cast<double>(end_ns - start_ns) /
                       static_cast<double>(windows);
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (int64_t t : done_ns) {
    if (t < start_ns || t >= end_ns) continue;
    const auto w = static_cast<size_t>(static_cast<double>(t - start_ns) / width);
    counts[std::min(w, counts.size() - 1)] += 1.0;
  }
  std::vector<double> steal(counts.size());
  std::fprintf(stderr, "%s per-window rate (1/s) / stolen cores:", label);
  for (size_t w = 0; w < counts.size(); ++w) {
    const auto lo = start_ns + static_cast<int64_t>(width * static_cast<double>(w));
    steal[w] = meter.StealCores(lo, lo + static_cast<int64_t>(width));
    counts[w] /= width * 1e-9;
    std::fprintf(stderr, " %.1f/%.2f", counts[w], steal[w]);
  }
  std::fprintf(stderr, "\n");
  return LowStealMedian(counts, steal);
}

double WindowedPercentile(const std::vector<double>& values, double p) {
  const size_t n = values.size();
  const auto needed = static_cast<size_t>(std::ceil(10.0 / (1.0 - p)));
  // An odd count, so the median is one window's value.
  const int windows =
      static_cast<int>(std::clamp<size_t>(n / needed, 1, 5) - 1) / 2 * 2 + 1;
  std::vector<double> per_window;
  for (int w = 0; w < windows; ++w) {
    const size_t lo = n * static_cast<size_t>(w) / static_cast<size_t>(windows);
    const size_t hi =
        n * static_cast<size_t>(w + 1) / static_cast<size_t>(windows);
    if (hi > lo) {
      per_window.push_back(Percentile(
          std::vector<double>(values.begin() + static_cast<long>(lo),
                              values.begin() + static_cast<long>(hi)),
          p));
    }
  }
  return Median(per_window);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

int64_t StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atoll(line.c_str() + prefix.size());
    }
  }
  return 0;
}

}  // namespace

int64_t ProcessThreads() { return StatusField("Threads"); }

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long ticks[8] = {0};
  in >> cpu;
  for (long long& t : ticks) in >> t;
  return static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (clear.fail()) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS mark\n");
  }
  return static_cast<double>(StatusField("VmRSS")) / 1024.0;
}

double PeakRssMb() {
  return static_cast<double>(StatusField("VmHWM")) / 1024.0;
}

void CpuMeter::Start() {
  start_ns_ = NowNs();
  start_cpu_ = ProcessCpuSeconds();
  steal_.assign(1, {start_ns_, HostStealSeconds()});
  max_threads_ = ProcessThreads();
}

void CpuMeter::Sample() {
  steal_.emplace_back(NowNs(), HostStealSeconds());
  max_threads_ = std::max(max_threads_, ProcessThreads());
}

void CpuMeter::Stop() {
  stop_ns_ = NowNs();
  stop_cpu_ = ProcessCpuSeconds();
  steal_.emplace_back(stop_ns_, HostStealSeconds());
}

double CpuMeter::StealCores() const { return StealCores(start_ns_, stop_ns_); }

double CpuMeter::StealCores(int64_t start_ns, int64_t end_ns) const {
  if (steal_.size() < 2) return 0.0;
  // The last sample at or before start_ns and the first at or after end_ns.
  const auto before = [](const std::pair<int64_t, double>& s, int64_t t) {
    return s.first < t;
  };
  auto hi = std::lower_bound(steal_.begin(), steal_.end(), end_ns, before);
  if (hi == steal_.end()) --hi;
  auto lo = std::lower_bound(steal_.begin(), steal_.end(), start_ns, before);
  if (lo != steal_.begin() && (lo == steal_.end() || lo->first > start_ns)) {
    --lo;
  }
  if (hi->first <= lo->first) return 0.0;
  return (hi->second - lo->second) /
         (static_cast<double>(hi->first - lo->first) * 1e-9);
}

double CpuMeter::BusyCores() const {
  const double wall = static_cast<double>(stop_ns_ - start_ns_) * 1e-9;
  return wall > 0.0 ? (stop_cpu_ - start_cpu_) / wall : 0.0;
}

void RunMetered(CpuMeter* meter, const std::function<void()>& body,
                const std::function<void()>& sample) {
  std::atomic<bool> done{false};
  meter->Start();
  std::thread worker([&] {
    body();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    meter->Sample();
    if (sample) sample();
  }
  worker.join();
  meter->Stop();
}

// ---- Load generators --------------------------------------------------------

StreamSamples RunOpenLoop(double rate, int64_t start_ns, int64_t end_ns,
                          int clients, bool record_latency,
                          const std::function<bool(int64_t, int64_t)>& send) {
  const double period_ns = 1e9 / rate;
  const auto total = static_cast<size_t>(
      static_cast<double>(end_ns - start_ns) / period_ns);
  const double failed_ms = static_cast<double>(end_ns - start_ns) * 1e-6;
  // Indexed by request, so samples stay in send order.
  StreamSamples out;
  out.late_ms.resize(total);
  if (record_latency) out.latency_ms.resize(total);
  std::atomic<size_t> next{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        const int64_t due =
            start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
        SleepUntilNs(due);
        const int64_t sent = NowNs();
        const bool ok = send(static_cast<int64_t>(i), due);
        const int64_t done = NowNs();
        out.late_ms[i] = static_cast<double>(sent - due) * 1e-6;
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        if (record_latency) {
          out.latency_ms[i] =
              ok ? static_cast<double>(done - due) * 1e-6 : failed_ms;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.attempted = static_cast<int64_t>(total);
  out.failed = failed.load();
  return out;
}

// ---- Trace spans ------------------------------------------------------------

namespace trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<int> g_next_tid{1};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

// Buffers are owned by the registry so spans survive their thread.
ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(owned));
  }
  return buffer;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NewId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Record(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id,
            uint64_t parent, uint64_t request) {
  if (!Enabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  buffer->spans.push_back(
      {name, start_ns, end_ns, id, parent, request, buffer->tid});
}

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& b : Buffers()) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

double Coverage(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, bool> is_root;
  double root_ns = 0.0;
  for (const Span& s : spans) {
    if (s.parent == 0) {
      is_root[s.id] = true;
      root_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double child_ns = 0.0;
  for (const Span& s : spans) {
    if (s.parent != 0 && is_root.count(s.parent) > 0) {
      child_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return root_ns > 0.0 ? child_ns / root_ns : 0.0;
}

void WriteRunTrace(const Options& options, const std::vector<Span>& spans) {
  const std::string path = options.out_dir + "/trace_" + options.workload +
                           "_seed" + std::to_string(options.seed) + ".json";
  if (WriteChromeTrace(spans, path)) {
    std::printf("trace: %s (%zu spans)\n", path.c_str(), spans.size());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace trace

}  // namespace perfbench
