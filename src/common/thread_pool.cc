#include "common/thread_pool.h"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace start::common {

int UsableCpuCount() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int num_threads) {
  START_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  START_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Accepted even while the destructor is draining: a running task may
    // legally submit follow-up work, and workers only exit once the queue is
    // empty, so the follow-up still runs before join completes.
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace start::common
