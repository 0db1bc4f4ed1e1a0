// perfbench — the repository benchmark's binary.
//
//   perfbench --workload pay_open|session_churn|corpus_deploy --seed <n>
//             --seconds <s> --trace 0|1 --hubd <tinyevm_hubd> --work-dir <dir>
//   perfbench --self-test
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (the end-to-end set, or with --trace 1 the
// per-layer set) by name with their units. Everything else goes to stderr.
// perfbench/run.py builds this binary and is the documented entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list the same names and units as BENCHMARK.json; run.py checks.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"lat_p25_ms", "ms"},
    {"hub_cpu_ms_per_req", "ms"},
    {"hub_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"load.lat_p50_ms", "ms"},
    {"load.lat_p99_ms", "ms"},
    {"load.rate_max", "1/s"},
    {"evm.deploys_per_s", "1/s"},
    {"u256.mulmod_n_ns", "ns"},
    {"u256.divmod_ns", "ns"},
    {"crypto.sign_us", "us"},
    {"crypto.recover_us", "us"},
    {"crypto.ecdsa_per_payment", "count"},
    {"channel.session_countersign_us", "us"},
    {"channel.session_accept_us", "us"},
    {"channel.hub_service_p50_ms", "ms"},
    {"channel.hub_service_p99_ms", "ms"},
    {"channel.hub_queue_p99_ms", "ms"},
    {"channel.hub_handle_payment_us", "us"},
    {"channel.hub_handle_open_us", "us"},
    {"channel.hub_handle_close_us", "us"},
    {"channel.hub_rejected", "count"},
    {"channel.hub_sessions", "count"},
    {"net.overhead_p50_ms", "ms"},
    {"net.overhead_p99_ms", "ms"},
    {"net.reqs_per_batch", "count"},
    {"net.busy_rejections", "count"},
    {"net.protocol_errors", "count"},
    {"net.encode_request_us", "us"},
    {"net.decode_request_us", "us"},
    {"net.encode_response_us", "us"},
    {"evm.translate_us", "us"},
    {"evm.mcycles_per_s", "Mcycles/s"},
    {"evm.cache_hit_ratio", "ratio"},
    {"evm.cache_evictions", "count"},
    {"evm.vm_cycles_total", "count"},
    {"corpus.gen_us", "us"},
    {"corpus.deployed", "count"},
    {"bench.send_lag_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <pay_open|session_churn|corpus_deploy> "
               "--seed <n> --seconds <s> --trace <0|1> --hubd <path> "
               "--work-dir <dir>\n"
               "       perfbench --self-test\n");
  return 2;
}

/// Prints the result line. A metric the workload has no layer for (the hub
/// layers on corpus_deploy, corpus counters on the hub workloads) reads 0
/// and is named on stderr.
template <std::size_t N>
void print_result(RunResult& result, const MetricSpec (&specs)[N]) {
  std::string out = "{\"correct\": ";
  std::string metrics;
  std::string missing;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    double value = 0;
    if (it == result.metrics.end()) {
      missing += std::string(" ") + spec.name;
    } else {
      value = it->second.value;
      if (it->second.unit != spec.unit) {
        result.fail(std::string(spec.name) + " has unit " + it->second.unit);
      }
    }
    if (!std::isfinite(value)) {
      result.fail(std::string(spec.name) + " is not a finite number");
      value = 0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  if (!missing.empty()) {
    std::fprintf(stderr, "not applicable on this workload (reported as 0):%s\n",
                 missing.c_str());
  }
  for (const auto& [name, m] : result.metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %-10s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples != 0) std::fprintf(stderr, " (n=%zu)", m.samples);
    std::fputc('\n', stderr);
  }
  for (const std::string& why : result.problems) {
    std::fprintf(stderr, "problem: %s\n", why.c_str());
  }
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--hubd" && has_value) {
      opt.hubd_path = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (self_test) {
    const int failures = run_self_tests();
    std::fprintf(stderr, "self-tests: %s\n", failures == 0 ? "all passed" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  const bool hub = opt.workload == "pay_open" || opt.workload == "session_churn";
  if ((!hub && opt.workload != "corpus_deploy") || opt.work_dir.empty() ||
      (hub && opt.hubd_path.empty()) || !(opt.seconds > 0)) {
    return usage();
  }
  try {
    // The benchmark's own logic is checked on every run, before set-up.
    const int failures = run_self_tests();
    RunResult result = hub ? run_hub_workload(opt) : run_corpus_workload(opt);
    if (failures != 0) result.fail("self-tests failed");
    if (opt.trace) {
      print_result(result, kPerLayer);
    } else {
      print_result(result, kEndToEnd);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
