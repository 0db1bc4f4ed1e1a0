// What one benchmark run reports: the metrics by name and unit, the
// operation counts, and whether every output checked out.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< percentile metrics: the sample count
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Why `correct` is false, one line each (printed to stderr).
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Everything a workload needs from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string hubd_path;  ///< tinyevm_hubd binary
  std::string work_dir;   ///< scratch files: port file, hubd log, trace
};

}  // namespace perfbench
