#include "common/cpu.h"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <thread>

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

}  // namespace start::common
