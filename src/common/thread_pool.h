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

/// CPUs this process may run on: the calling thread's affinity mask where
/// the OS exposes one (so `taskset` and cgroup cpusets count), else
/// std::thread::hardware_concurrency(); at least 1.
int UsableCpuCount();

/// \brief Fixed-size worker pool with a FIFO task queue.
///
/// Shared infrastructure for everything that needs background threads on
/// the serving plane (EmbeddingService's encode workers, StreamPipeline's
/// stages). Tasks are plain `std::function<void()>`; long-running tasks
/// (e.g. a worker loop) are fine as long as they observe their own stop
/// signal — the pool only guarantees that the destructor waits for every
/// submitted task to finish.
///
/// Threading contract:
///  - `Submit` may be called from any thread, including from inside a task.
///  - The destructor stops accepting new work, drains already-queued tasks,
///    and joins all workers. It must not be called from inside a task.
///  - The pool never touches thread-local or global RNG state; tasks that
///    need randomness must carry their own seeded `Rng`.
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
