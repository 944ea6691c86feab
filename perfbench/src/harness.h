// Shared pieces of the repo benchmark: the run report, load generators,
// process statistics and the span recorder behind the traced run.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< Scratch artifacts, result file and trace go here.
  std::string commit;   ///< Source identity recorded in the result file.
};

/// Metrics and correctness verdict of one run. Every per-layer metric is
/// pre-declared as 0 so a layer a workload does not touch still reports.
class Report {
 public:
  Report();

  void EndToEnd(const std::string& name, double value, const char* unit);
  void Layer(const std::string& name, double value);

  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);

  /// Counts operations: `failed` of `attempted` failed, were refused or
  /// were dropped.
  void Count(int64_t attempted, int64_t failed);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// The result line: end-to-end metrics untraced, per-layer ones traced.
  std::string ResultJson(bool traced) const;
  /// Both metric sets plus `env`, for the result file.
  std::string FullJson(const std::string& env) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> e2e_;
  std::map<std::string, Value> layer_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- Clock and statistics ---------------------------------------------------

/// Monotonic nanoseconds since process start.
int64_t NowNs();
void SleepUntilNs(int64_t deadline_ns);

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

class CpuMeter;

/// Median of `rates` over the third of them whose `steal` (cores the host
/// took, one value per rate) was lowest. On a guest whose physical CPUs are
/// shared, throughput falls far faster than the stolen share of the CPUs,
/// so only the stretches the host left alone compare between runs.
double LowStealMedian(const std::vector<double>& rates,
                      const std::vector<double>& steal);

/// Splits [start_ns, end_ns) into `windows` equal windows and returns the
/// median completion rate (1/s) of `done_ns` over the least-stolen third of
/// them (steal as `meter` saw it).
double LowStealRate(const std::vector<int64_t>& done_ns, int64_t start_ns,
                    int64_t end_ns, int windows, const CpuMeter& meter,
                    const char* label);

/// The `p` percentile of samples kept in send order, as the median over up
/// to five (an odd number of) consecutive slices that each hold at least
/// ten samples beyond that percentile (the plain percentile when there are
/// too few for three).
double WindowedPercentile(const std::vector<double>& values, double p);

/// CPU seconds (user + system) this process has used.
double ProcessCpuSeconds();
/// Threads of this process, from /proc/self/status.
int64_t ProcessThreads();
/// CPU time the hypervisor gave to other guests (all CPUs, /proc/stat).
double HostStealSeconds();
/// Hands freed heap pages back to the kernel, resets the peak resident set
/// (VmHWM) to the current one and returns that resident set in MB. Called
/// just before the set-up that serves the run, after the benchmark's own
/// inputs, artifacts and earlier set-up trials, so the peak read later
/// covers that set-up and serving only.
double ResetPeakRss();
/// Peak resident set (VmHWM) in MB.
double PeakRssMb();

/// CPU use over a phase: cores kept busy on average, cores the host stole
/// (over the phase or a stretch of it), and the most threads seen by the
/// sampler.
class CpuMeter {
 public:
  void Start();
  void Sample();
  double BusyCores() const;
  double StealCores() const;
  /// Cores stolen on average over [start_ns, end_ns), from the samples
  /// around it.
  double StealCores(int64_t start_ns, int64_t end_ns) const;
  double CpuSeconds() const { return stop_cpu_ - start_cpu_; }
  int64_t MaxThreads() const { return max_threads_; }
  void Stop();

 private:
  int64_t start_ns_ = 0, stop_ns_ = 0;
  double start_cpu_ = 0.0, stop_cpu_ = 0.0;
  int64_t max_threads_ = 0;
  std::vector<std::pair<int64_t, double>> steal_;  ///< (time, steal seconds)
};

/// Runs `body` on its own thread, bracketed by `meter`, while the calling
/// thread samples the process every 20 ms (`sample` may be empty).
void RunMetered(CpuMeter* meter, const std::function<void()>& body,
                const std::function<void()>& sample);

// ---- Load generators --------------------------------------------------------

/// Samples of one open-loop stream. Latency runs from each request's due
/// time; a failed request is recorded with the phase's wall time, so it
/// misses any latency limit.
struct StreamSamples {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< Generator lateness: send time - due.
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Fixed-rate open loop: request i is due at start_ns + i / rate and is sent
/// by one of `clients` threads no earlier than that. `send(i, due_ns)`
/// returns false on failure. With `record_latency`, latency is taken when
/// `send` returns; otherwise the caller records completion itself.
StreamSamples RunOpenLoop(double rate, int64_t start_ns, int64_t end_ns,
                          int clients, bool record_latency,
                          const std::function<bool(int64_t, int64_t)>& send);

// ---- Trace spans ------------------------------------------------------------

namespace trace {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t request = 0;
  int tid = 0;
};

/// Spans are recorded only while enabled (one relaxed load when off).
void SetEnabled(bool on);
bool Enabled();

/// A fresh span id (never 0).
uint64_t NewId();

/// Appends a finished span to the calling thread's buffer.
void Record(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id,
            uint64_t parent, uint64_t request);

/// Every span recorded so far, from all threads. Call once the recording
/// threads are quiet.
std::vector<Span> Collect();

/// Writes spans as Chrome trace-event JSON (opens in Perfetto).
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

/// Durations in ms of spans named `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

/// Sum of root-span children durations over the sum of root durations.
double Coverage(const std::vector<Span>& spans);

/// Writes `spans` to <out_dir>/trace_<workload>_seed<seed>.json.
void WriteRunTrace(const Options& options, const std::vector<Span>& spans);

}  // namespace trace

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
