// Per-run scratch directory for the examples' checkpoints and artifacts.
#ifndef START_EXAMPLES_RUN_DIR_H_
#define START_EXAMPLES_RUN_DIR_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace start::examples {

/// This run's private directory, made with mkdtemp under $TMPDIR (default
/// /tmp) on first use and removed with everything in it when the process
/// exits normally. Two runs at once never share a file, and a run leaves
/// nothing behind.
inline const std::string& RunDir() {
  struct Dir {
    std::string path;
    Dir() {
      const char* tmp = std::getenv("TMPDIR");
      std::string pattern = std::string(tmp != nullptr && *tmp != '\0'
                                            ? tmp
                                            : "/tmp") +
                            "/start_example_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr) {
        std::perror("mkdtemp");
        std::exit(1);
      }
      path = pattern;
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// Path of `name` inside RunDir().
inline std::string RunFile(const std::string& name) {
  return RunDir() + "/" + name;
}

}  // namespace start::examples

#endif  // START_EXAMPLES_RUN_DIR_H_
