#ifndef START_COMMON_CPU_H_
#define START_COMMON_CPU_H_

namespace start::common {

/// CPUs this process may run on: the calling thread's affinity mask where
/// the OS exposes one (so `taskset` and cgroup cpusets count), else
/// std::thread::hardware_concurrency(); at least 1.
int UsableCpuCount();

}  // namespace start::common

#endif  // START_COMMON_CPU_H_
