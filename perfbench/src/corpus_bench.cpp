// corpus_deploy: the paper's Fig. 3 experiment as a batch workload. Set-up
// generates a seeded 7,000-contract corpus; the timed window deploys it in
// whole passes on two threads that claim indices from a shared cursor, each
// pass with a fresh 8 MiB translation cache that the corpus's unique code
// overruns. No ECDSA, no hub and no socket: this is the bypass workload for
// every payment-path change.
//
// The first pass is a warm-up and the reference outcomes. Every contract is
// deployed once per later pass, and its cost is its fastest pass, in wall
// and in thread CPU time: a shared host's interference only ever adds time
// and comes and goes within a run, so best-of-passes tracks the program's
// own cost where a pooled median moved by a fifth between runs.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "corpus/corpus.hpp"
#include "evm/code_cache.hpp"
#include "ladder.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace corpus = tinyevm::corpus;

constexpr std::size_t kContracts = 7000;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSetupRounds = 9;
constexpr std::size_t kRawSample = 100;
/// Passes after which the peak resident set is read: a fixed amount of
/// work, so the reading does not follow the run's pass count.
constexpr std::size_t kRssPasses = 3;
constexpr std::size_t kLadderSamples = 16;

double process_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double self_peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

struct Pass {
  std::vector<corpus::DeploymentOutcome> outcomes;
  std::vector<double> deploy_ms;
  std::vector<double> deploy_cpu_ms;  ///< the deploying thread's CPU time
  double wall_s = 0;
  evm::CodeCache::Stats cache;
};

Pass deploy_pass(const std::vector<corpus::Contract>& contracts, Tracer& tracer) {
  Pass pass;
  pass.outcomes.resize(contracts.size());
  pass.deploy_ms.resize(contracts.size());
  pass.deploy_cpu_ms.resize(contracts.size());
  auto cache = std::make_shared<evm::CodeCache>();
  std::atomic<std::size_t> cursor{0};
  std::vector<Tracer> tracers;
  for (std::size_t w = 0; w < kWorkers; ++w) tracers.emplace_back(tracer.enabled());
  const std::int64_t start = now_ns();
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      corpus::DeviceDeployer deployer(evm::VmConfig::tiny(), cache);
      for (std::size_t i = cursor++; i < contracts.size(); i = cursor++) {
        const double cpu0 = thread_cpu_ms();
        const std::int64_t t0 = now_ns();
        pass.outcomes[i] = deployer.deploy(contracts[i]);
        const std::int64_t t1 = now_ns();
        pass.deploy_cpu_ms[i] = thread_cpu_ms() - cpu0;
        pass.deploy_ms[i] = static_cast<double>(t1 - t0) / 1e6;
        tracers[w].add("corpus.deploy", "evm", t0, t1, static_cast<std::uint32_t>(w + 1));
      }
    });
  }
  for (auto& t : workers) t.join();
  pass.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  pass.cache = cache->stats();
  for (const Tracer& t : tracers) tracer.absorb(t);
  return pass;
}

}  // namespace

RunResult run_corpus_workload(const RunOptions& opt) {
  RunResult result;
  Tracer tracer(opt.trace);

  // Set-up: the corpus, generated whole kSetupRounds times (the last one
  // is kept); setup_s is the median round, which one cold or interrupted
  // round does not move.
  corpus::GeneratorConfig config;
  config.seed = opt.seed;
  config.count = kContracts;
  const corpus::Generator generator(config);
  std::vector<corpus::Contract> contracts(kContracts);
  std::vector<double> round_s;
  for (std::size_t r = 0; r < kSetupRounds; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kContracts; ++i) contracts[i] = generator.make(i);
    round_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double setup_s = median(round_s);
  result.set("setup_s", setup_s, "s", round_s.size());

  // Timed window: whole passes until --seconds is spent (at least
  // kRssPasses, so every pass but the warm-up can be compared with it).
  const double cpu_start = process_cpu_ms();
  const std::int64_t window_start = now_ns();
  std::vector<Pass> passes;
  std::uint64_t mismatched = 0;
  double rss = 0;
  while (passes.size() < kRssPasses ||
         static_cast<double>(now_ns() - window_start) / 1e9 < opt.seconds) {
    Tracer pass_tracer(opt.trace && passes.empty());  // spans for pass 1 only
    passes.push_back(deploy_pass(contracts, pass_tracer));
    tracer.absorb(pass_tracer);
    if (passes.size() == kRssPasses) rss = self_peak_rss_mib();
    if (passes.size() > 1) {
      for (std::size_t i = 0; i < kContracts; ++i) {
        mismatched += passes.back().outcomes[i] != passes.front().outcomes[i];
      }
      passes.back().outcomes = {};  // only the first pass is kept whole
    }
  }
  const double cpu_ms = process_cpu_ms() - cpu_start;
  const double window_s = static_cast<double>(now_ns() - window_start) / 1e9;

  // Outside the window: the raw engine, the semantic reference, must agree
  // with the translated engines on a seeded sample.
  const auto& reference = passes.front().outcomes;
  tinyevm::evm::VmConfig raw_config = tinyevm::evm::VmConfig::tiny();
  raw_config.engine = "raw";
  corpus::DeviceDeployer raw(raw_config, std::make_shared<evm::CodeCache>());
  Rng pick(derive_seed(opt.seed, 4));
  std::uint64_t raw_mismatched = 0;
  for (std::size_t k = 0; k < kRawSample; ++k) {
    const std::size_t i = pick.below(kContracts);
    raw_mismatched += raw.deploy(contracts[i]) != reference[i];
  }

  result.attempted = passes.size() * kContracts + kRawSample;
  result.failed = mismatched + raw_mismatched;
  if (mismatched != 0) result.fail("a pass's outcomes differ from the first pass");
  if (raw_mismatched != 0) result.fail("outcomes differ from the raw engine's");

  std::vector<double> deploy_ms, rates;
  std::uint64_t cycles = 0, deployed = 0;
  for (const auto& o : reference) {
    cycles += o.mcu_cycles;
    deployed += o.success;
  }
  std::vector<double> best_ms(kContracts, HUGE_VAL), best_cpu_ms(kContracts, HUGE_VAL);
  for (std::size_t k = 1; k < passes.size(); ++k) {
    const Pass& p = passes[k];
    deploy_ms.insert(deploy_ms.end(), p.deploy_ms.begin(), p.deploy_ms.end());
    rates.push_back(static_cast<double>(kContracts) / p.wall_s);
    for (std::size_t i = 0; i < kContracts; ++i) {
      best_ms[i] = std::min(best_ms[i], p.deploy_ms[i]);
      best_cpu_ms[i] = std::min(best_cpu_ms[i], p.deploy_cpu_ms[i]);
    }
  }
  const auto p25 = percentile(best_ms, 0.25);
  const auto p50 = percentile(deploy_ms, 0.5);
  const auto p99 = percentile(deploy_ms, 0.99);
  if (!p25 || !p50 || !p99) result.fail("too few deploy samples");
  const double deploys_per_s = median(rates);
  result.set("lat_p25_ms", p25.value_or(0), "ms", best_ms.size());
  result.set("load.lat_p50_ms", p50.value_or(0), "ms", deploy_ms.size());
  result.set("load.lat_p99_ms", p99.value_or(0), "ms", deploy_ms.size());
  result.set("evm.deploys_per_s", deploys_per_s, "1/s", rates.size());
  // A batch workload's highest sustainable rate is its throughput.
  result.set("load.rate_max", deploys_per_s, "1/s", rates.size());
  // No hub runs here: CPU and peak memory are the deploying process's own,
  // CPU as the mean of each contract's best-of-passes thread CPU time.
  double cpu_sum = 0;
  for (const double ms : best_cpu_ms) cpu_sum += ms;
  result.set("hub_cpu_ms_per_req", cpu_sum / static_cast<double>(kContracts), "ms",
             kContracts);
  result.set("hub_rss_mb", rss, "MiB");

  if (opt.trace) {
    const auto& cache = passes.front().cache;
    result.set("evm.cache_hit_ratio", cache.hit_rate(), "ratio");
    result.set("evm.cache_evictions", static_cast<double>(cache.evictions), "count");
    result.set("evm.vm_cycles_total", static_cast<double>(cycles), "count");
    double pass_wall = 0;
    for (std::size_t k = 1; k < passes.size(); ++k) pass_wall += passes[k].wall_s;
    result.set("evm.mcycles_per_s",
               static_cast<double>(cycles) * static_cast<double>(passes.size() - 1) /
                   pass_wall / 1e6,
               "Mcycles/s");
    result.set("corpus.gen_us", setup_s / static_cast<double>(kContracts) * 1e6, "us");
    result.set("corpus.deployed", static_cast<double>(deployed), "count");

    // Tracing overhead: the spans the window recorded, as a share of the
    // process's CPU time in the window.
    result.set("bench.trace_overhead_pct",
               100.0 * span_cost_ns() * static_cast<double>(tracer.size()) / (cpu_ms * 1e6),
               "%");

    Rng sample(derive_seed(opt.seed, 3));
    std::vector<Hash256> digests;
    std::vector<evm::Bytes> codes;
    for (std::size_t k = 0; k < kLadderSamples; ++k) {
      const corpus::Contract& c = contracts[sample.below(kContracts)];
      digests.push_back(c.init_code_hash);
      codes.push_back(c.init_code);
    }
    run_core_ladder(digests, codes, tracer, result);
    const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.write_chrome_json(path)) result.fail("cannot write " + path);
    std::fprintf(stderr, "trace: %s (%zu spans)\n", path.c_str(), tracer.size());
  }
  std::fprintf(stderr,
               "corpus_deploy: %zu passes of %zu contracts in %.2f s; %llu deployed per pass\n",
               passes.size(), kContracts, window_s,
               static_cast<unsigned long long>(deployed));
  return result;
}

}  // namespace perfbench
