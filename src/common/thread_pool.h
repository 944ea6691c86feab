#ifndef START_COMMON_THREAD_POOL_H_
#define START_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace start::common {

/// \brief Count-down join latch for fan-out/fan-in over a ThreadPool.
///
/// The pool has no join primitive by design (tasks are fire-and-forget);
/// callers that submit a batch and need all of it finished — the sharded
/// trainer's per-replica phases, the all-reduce's per-parameter fan-out —
/// pair each task with `CountDown()` and block on `Wait()`. One-shot:
/// create a fresh latch per batch.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Signals one task done. The counter is decremented (and the last waiter
  /// notified) under the lock, so a waiter that wakes and destroys the
  /// latch cannot race the signaling thread.
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  /// Blocks until CountDown() has been called `count` times.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

/// CPUs this process may run on: the calling thread's affinity mask where
/// the OS exposes one (so `taskset` and cgroup cpusets count), else
/// std::thread::hardware_concurrency(); at least 1.
int UsableCpuCount();

/// \brief Fixed-size worker pool with a FIFO task queue.
///
/// Shared infrastructure for everything that needs background threads: the
/// async data loader runs its augmentation workers on one, and future serving
/// work (request fan-out, shard queries) is expected to reuse it. Tasks are
/// plain `std::function<void()>`; long-running tasks (e.g. a loader worker
/// loop) are fine as long as they observe their own stop signal — the pool
/// only guarantees that the destructor waits for every submitted task to
/// finish.
///
/// Threading contract:
///  - `Submit` may be called from any thread, including from inside a task.
///  - The destructor stops accepting new work, drains already-queued tasks,
///    and joins all workers. It must not be called from inside a task.
///  - The pool never touches thread-local or global RNG state; tasks that
///    need randomness must carry their own seeded `Rng` (see
///    `data/loader.h` for the per-batch seeding scheme).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains queued tasks, waits for running ones, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks submitted from inside a running task are executed
  /// even if the destructor has already begun draining (a chain of tasks that
  /// self-submits forever would make the destructor wait forever — tasks must
  /// terminate).
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace start::common

#endif  // START_COMMON_THREAD_POOL_H_
