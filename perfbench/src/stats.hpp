// Pure helpers of the benchmark: seeded random streams, Poisson arrival
// schedules, the percentile rule, and the rate_max search. Kept free of I/O
// so the self-tests (selftest.cpp) can drive them at tiny scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// splitmix64-seeded xorshift stream. Defined bit for bit here (unlike the
/// <random> distributions) so a seed names the same inputs on every
/// standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in (0, 1].
  double unit();

 private:
  std::uint64_t state_;
};

/// Mixes a workload seed with a stream label so independent streams
/// (schedules, channel picks, units) never share draws.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Arrival times, in seconds from the phase start, of `count` Poisson
/// arrivals at `rate` per second.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t count);

/// Nearest-rank percentile of a non-empty sample (q in (0, 1)): the value
/// at rank ceil(q * n).
double nearest_rank(std::vector<double> values, double q);

/// nearest_rank, but nullopt unless at least ten samples lie beyond that
/// rank: the rule every reported percentile follows.
std::optional<double> percentile(std::vector<double> values, double q);

/// Samples that lie beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// One step of the rate ramp: the offered rate and what it measured.
struct Step {
  double rate = 0;
  double p99_ms = 0;    ///< nearest-rank p99 latency, failures counted late
  bool passed = false;  ///< no failures, p99 within the limit, no backlog
};

/// rate_max from steps of increasing rate: the highest passing step,
/// extended toward the step after it by interpolating log p99 linearly in
/// the rate up to `limit_ms`, so the result is not quantized to the ramp's
/// grid. A failing step below a passing one counts as transient. 0 when no
/// step passes; the top rate when the last step passes.
double rate_max_from_ramp(const std::vector<Step>& steps, double limit_ms);

/// Median of a non-empty sample.
double median(std::vector<double> values);

}  // namespace perfbench
