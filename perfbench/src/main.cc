// Entry point of the repo benchmark (run it through perfbench/run.py):
//
//   perfbench --workload search|ingest|adapt --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--commit ID]
//
// Prints the result as the last line of stdout and writes the same metrics,
// with the run's environment, to DIR/result_<workload>_seed<N>_trace<T>.json.
// Exits 1 when a correctness check fails.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "harness.h"
#include "tensor/qgemm.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Environment(const perfbench::Options& o) {
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << JsonString(CpuModel())
     << ", \"qgemm_backend\": "
     << JsonString(start::tensor::qgemm::BackendName(
            start::tensor::qgemm::ActiveBackend()))
     << ", \"omp_max_threads\": " << omp_threads
     << ", \"omp_num_threads_env\": "
     << JsonString(std::getenv("OMP_NUM_THREADS") != nullptr
                       ? std::getenv("OMP_NUM_THREADS")
                       : "unset")
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"commit\": " << JsonString(o.commit)
     << ", \"workload\": " << JsonString(o.workload) << ", \"seed\": " << o.seed
     << ", \"seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
     << "}";
  return os.str();
}

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      o->trace = value == "1";
    } else if (key == "--out-dir") {
      o->out_dir = value;
    } else if (key == "--commit") {
      o->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->out_dir.empty() && o->seconds > 0.0 &&
         (o->workload == "search" || o->workload == "ingest" ||
          o->workload == "adapt");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload search|ingest|adapt --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR [--commit ID]\n");
    return 2;
  }
  mkdir(options.out_dir.c_str(), 0755);
  perfbench::trace::SetEnabled(options.trace);

  const std::string env = Environment(options);
  std::printf("environment: %s\n", env.c_str());
  perfbench::Report report;
  if (options.workload == "search") {
    perfbench::RunSearch(options, &report);
  } else if (options.workload == "ingest") {
    perfbench::RunIngest(options, &report);
  } else {
    perfbench::RunAdapt(options, &report);
  }
  perfbench::trace::SetEnabled(false);

  const std::string path = options.out_dir + "/result_" + options.workload +
                           "_seed" + std::to_string(options.seed) + "_trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream(path) << report.FullJson(env);
  if (!report.correct()) {
    std::fprintf(stderr, "perfbench: correctness check failed\n");
    return 1;
  }
  std::printf("%s\n", report.ResultJson(options.trace).c_str());
  std::fflush(stdout);
  return 0;
}
