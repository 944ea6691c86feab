#ifndef START_SERVE_DRIFT_MONITOR_H_
#define START_SERVE_DRIFT_MONITOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace start::serve {

/// Knobs of the windowed drift statistics.
struct DriftConfig {
  /// Embeddings per window; a window's stats are finalized when it fills.
  int64_t window_size = 256;
  /// The first `reference_windows` completed windows are averaged into the
  /// frozen reference every later window is compared against.
  int64_t reference_windows = 1;
  /// Drift fires when 1 - cos(window mean vector, reference mean vector)
  /// exceeds this (0 = identical direction, 2 = opposite).
  double cosine_shift_threshold = 0.05;
  /// Drift fires when the total-variation distance between the window's
  /// embedding-norm histogram and the reference histogram exceeds this
  /// (0 = identical, 1 = disjoint).
  double norm_shift_threshold = 0.25;
  /// Bins of the norm histogram over [0, norm_hist_max), plus an overflow
  /// bin. norm_hist_max <= 0 self-calibrates to 2x the largest norm seen in
  /// the first reference window.
  int64_t norm_bins = 16;
  double norm_hist_max = 0.0;
};

/// Finalized statistics of one completed window.
struct DriftWindowStats {
  int64_t window = 0;        ///< 0-based completed-window index.
  int64_t count = 0;         ///< Embeddings in the window (== window_size).
  double mean_norm = 0.0;    ///< Mean L2 norm over the window.
  /// 1 - cosine(window mean vector, reference mean vector); 0 while the
  /// reference is still accumulating (reference windows compare to
  /// themselves by construction).
  double cosine_shift = 0.0;
  /// Total-variation distance between the window's norm histogram and the
  /// reference histogram; 0 while the reference is still accumulating.
  double norm_shift = 0.0;
  bool is_reference = false; ///< Window contributed to the frozen reference.
  bool drifted = false;      ///< Either shift crossed its threshold.
};

/// \brief Windowed embedding-drift statistics for the streaming ingestion
/// pipeline: keeps a frozen reference window (mean vector + norm histogram)
/// and flags later windows whose mean-vector direction or norm distribution
/// moves away from it.
///
/// The two statistics are deliberately complementary: the mean-vector
/// cosine shift catches the corpus drifting toward a different region of
/// embedding space (new OD patterns, a re-routed arterial), while the norm
/// histogram catches magnitude/shape changes that can cancel out in the
/// mean (e.g. the stream bifurcating into two symmetric modes).
///
/// The on-drift callback is the retraining trigger seam: production
/// (serve::AdaptationController::OnDrift) wires it to schedule an adaptation
/// round on the controller's worker thread, whose retrain step is
/// core::WarmStartRetrain — a new run over the ingested corpus that starts
/// from the serving checkpoint's weights, not a PretrainConfig::resume.
/// Tests and the bench wire a counter.
///
/// Determinism: Observe() accumulates in double precision, strictly in call
/// order, so the same embedding stream always produces bitwise-identical
/// window stats (asserted by tests/drift_monitor_test.cc, and relied on by
/// the pipeline's deterministic-replay contract — the pipeline's finalizer
/// observes embeddings in stream order regardless of worker counts).
///
/// Thread-safety: all methods are safe to call concurrently; Observe()
/// calls are serialized internally, and the callback runs on the observing
/// thread with no monitor lock held. At most one callback runs at a time
/// (a second thread completing a drifted window blocks until the running
/// callback returns).
///
/// Reentrancy: a callback MAY call back into this monitor. Reads
/// (History(), observed(), ...) see the state as of the window that fired.
/// A reentrant Observe() does not recurse into a nested callback — the
/// embedding is deferred and replayed, in arrival order, after the callback
/// returns; windows completed by the replay fire their own (sequential,
/// never nested) callbacks. Deferred embeddings count toward observed()
/// only once replayed, so a callback never sees its own observes.
class DriftMonitor {
 public:
  using Callback = std::function<void(const DriftWindowStats&)>;

  explicit DriftMonitor(int64_t dim, const DriftConfig& config = {});

  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

  /// Installs the drift callback (invoked once per drifted window). Must be
  /// set before the first Observe().
  void SetOnDrift(Callback callback);

  /// Feeds one embedding ([dim] floats) into the current window.
  void Observe(const float* embedding, int64_t dim);

  int64_t dim() const { return dim_; }
  const DriftConfig& config() const { return config_; }

  /// Embeddings observed so far.
  int64_t observed() const;
  /// Completed windows so far.
  int64_t windows_completed() const;
  /// Completed windows that crossed a drift threshold.
  int64_t drift_events() const;

  /// Stats of every completed window, in completion order.
  std::vector<DriftWindowStats> History() const;

  /// The frozen reference mean vector (empty until the reference windows
  /// have completed).
  std::vector<double> ReferenceMean() const;

 private:
  /// Finalizes the just-filled window (mu_ held); returns the stats so the
  /// caller can fire the callback outside the lock.
  DriftWindowStats FinalizeWindowLocked();

  /// Accumulates one embedding and fires the callback when it completes a
  /// drifted window. Must not be called from inside the callback (Observe's
  /// reentrancy guard routes that case to deferred_ instead).
  void AccumulateAndNotify(const float* embedding);

  const int64_t dim_;
  const DriftConfig config_;
  Callback on_drift_;

  /// Serializes callback invocations across observing threads, held while
  /// on_drift_ runs; never held together with mu_.
  std::mutex callback_mu_;

  mutable std::mutex mu_;
  bool in_callback_ = false;         ///< Guarded by mu_.
  std::thread::id callback_thread_;  ///< Guarded by mu_.
  /// Embeddings Observe()d reentrantly from inside the callback, flattened
  /// [k * dim]; replayed after the callback returns. Guarded by mu_.
  std::vector<float> deferred_;
  int64_t observed_ = 0;
  int64_t drift_events_ = 0;
  std::vector<double> window_sum_;    ///< Running mean-vector accumulator.
  std::vector<double> window_norms_;  ///< Raw norms of the current window.
  std::vector<DriftWindowStats> history_;

  // Frozen after `reference_windows` windows complete.
  bool reference_frozen_ = false;
  double hist_max_ = 0.0;                ///< Norm-histogram range.
  std::vector<double> reference_sum_;    ///< Sum over reference windows.
  std::vector<double> reference_norms_;  ///< Norms of reference windows.
  std::vector<double> reference_hist_;   ///< Normalized reference histogram.
  std::vector<double> reference_mean_;
};

}  // namespace start::serve

#endif  // START_SERVE_DRIFT_MONITOR_H_
