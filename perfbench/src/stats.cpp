#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t Rng::next() {
  // splitmix64: full-period, and a zero seed is fine.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::unit() {
  // 53 random mantissa bits, shifted into (0, 1] so log() stays finite.
  return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1342543de82ef95ULL));
  return rng.next();
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t count) {
  Rng rng(seed);
  std::vector<double> at;
  at.reserve(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(rng.unit()) / rate;
    at.push_back(t);
  }
  return at;
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

double nearest_rank(std::vector<double> values, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

std::optional<double> percentile(std::vector<double> values, double q) {
  if (values.empty() || samples_beyond(values.size(), q) < 10) return std::nullopt;
  return nearest_rank(std::move(values), q);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double rate_max_from_ramp(const std::vector<Step>& steps, double limit_ms) {
  std::size_t best = steps.size();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].passed) best = i;
  }
  if (best == steps.size()) return 0;
  const Step& pass = steps[best];
  if (best + 1 == steps.size()) return pass.rate;
  const Step& fail = steps[best + 1];
  // A step that failed on errors or backlog rather than on its p99 counts
  // as ten times over the limit, which puts the estimate near `pass`.
  const double over = fail.p99_ms > limit_ms ? std::min(fail.p99_ms, 10 * limit_ms)
                                             : 10 * limit_ms;
  const double under = std::max(pass.p99_ms, 1e-3);
  const double share = std::clamp(
      std::log(limit_ms / under) / std::log(over / under), 0.0, 1.0);
  return pass.rate + (fail.rate - pass.rate) * share;
}

}  // namespace perfbench
