// Self-tests of the benchmark's own logic, at tiny scale: the percentile
// rule, the rate_max ramp, the response checker, and seeded schedules.
#include <cmath>
#include <cstdio>

#include "channel/manager.hpp"
#include "hub_io.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile_rule() {
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  expect(percentile(one_to(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(!percentile(one_to(999), 0.99), "p99 refused with 9 samples beyond");
  expect(!percentile(one_to(100), 0.99), "p99 refused with 1 sample beyond");
  expect(percentile(one_to(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile(one_to(19), 0.5), "p50 refused with 9 samples beyond");
  expect(!percentile({}, 0.5), "no percentile of nothing");
}

void test_rate_search() {
  // A synthetic latency curve: p99 grows tenfold for every 50/s past
  // 100/s and crosses the 100 ms limit at 137/s.
  const auto curve = [](double r) { return 100 * std::pow(10.0, (r - 137) / 50); };
  const auto ramp = [&](std::vector<double> rates) {
    std::vector<Step> steps;
    for (double r : rates) steps.push_back({r, curve(r), curve(r) <= 100});
    return steps;
  };
  const double r = rate_max_from_ramp(ramp({20, 50, 90, 110, 130, 150, 170}), 100);
  expect(std::fabs(r - 137) < 0.01, "log interpolation finds the crossing");
  expect(std::fabs(rate_max_from_ramp(ramp({50, 130, 145}), 100) - 137) < 0.01,
         "the crossing does not depend on the ramp's grid");
  // A transient failure below the highest passing step is ignored.
  auto steps = ramp({50, 90, 110, 130, 150});
  steps[2] = {110, 300, false};
  expect(std::fabs(rate_max_from_ramp(steps, 100) - 137) < 0.01,
         "a failing step below a passing one is transient");
  // A step that failed on errors (p99 within the limit) caps the gain.
  steps = ramp({50, 130, 150});
  steps[2] = {150, 40, false};
  const double capped = rate_max_from_ramp(steps, 100);
  expect(capped > 130 && capped < 137, "an erroring step lands near the last pass");
  expect(rate_max_from_ramp({{50, 500, false}, {90, 900, false}}, 100) == 0,
         "no passing step gives 0");
  expect(rate_max_from_ramp(ramp({50, 90, 110}), 100) == 110,
         "a ramp that never fails reports its top rate");
}

void test_checker() {
  namespace ch = tinyevm::channel;
  using tinyevm::U256;
  const auto anchor = tinyevm::keccak256(std::string_view(kHubAnchor));
  ch::ChannelHub hub("selftest", tinyevm::secp256k1::PrivateKey::from_seed(kHubKeySeed),
                     anchor);
  hub.set_sensor_default(kSensorDevice, U256{kHubSensorReading});
  ch::ChannelEndpoint endpoint(
      "device", tinyevm::secp256k1::PrivateKey::from_seed("selftest-device"), anchor);
  endpoint.sensors().set_reading(kSensorDevice, U256{kDeviceSensorReading});
  const auto open = endpoint.open_request(U256{42}, U256{3}, kSensorDevice);
  expect(open && endpoint.apply(hub.handle(*open)), "self-test channel opens");
  const auto update = endpoint.propose_payment(U256{2});
  expect(update.has_value(), "self-test payment is proposed");
  if (!update) return;
  const ch::HubResponse want = hub.handle(*update);
  expect(want.ok() && want.state.has_value(), "self-test payment is countersigned");
  if (!want.state) return;

  // The same bytes back over the wire codec match; telemetry is ignored.
  net::FrameReader reader;
  reader.feed(net::encode_response(want, 9));
  auto frame = reader.next();
  auto back = frame ? net::decode_response(*frame) : std::nullopt;
  expect(back && same_response(*back, want), "an identical response matches");
  if (back) {
    back->queue_us += 1000;
    back->service_us += 1000;
    expect(same_response(*back, want), "telemetry fields are not compared");
  }

  // One flipped byte of the hub's signature must be rejected.
  auto wire = want.state->receiver_sig.serialize();
  wire[7] ^= 0x01;
  const auto flipped_sig = tinyevm::secp256k1::Signature::deserialize(wire);
  expect(flipped_sig.has_value(), "flipped signature still parses");
  if (!flipped_sig) return;
  ch::HubResponse flipped = want;
  flipped.state->receiver_sig = *flipped_sig;
  expect(!same_response(flipped, want), "one flipped signature byte is rejected");
  flipped = want;
  flipped.state->state.paid_total = flipped.state->state.paid_total + U256{1};
  expect(!same_response(flipped, want), "a changed state field is rejected");
  flipped = want;
  flipped.status = ch::HubStatus::Busy;
  expect(!same_response(flipped, want), "a refused request is rejected");
}

void test_schedules() {
  const auto a = poisson_schedule(derive_seed(7, 10), 80, 2000);
  const auto b = poisson_schedule(derive_seed(7, 10), 80, 2000);
  const auto c = poisson_schedule(derive_seed(8, 10), 80, 2000);
  const auto d = poisson_schedule(derive_seed(7, 11), 80, 2000);
  expect(a == b, "a seed repeats its schedule");
  expect(a != c, "another seed gives another schedule");
  expect(a != d, "another stream gives another schedule");
  const double rate = static_cast<double>(a.size()) / a.back();
  expect(std::fabs(rate - 80) < 8, "the schedule offers its rate");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  expect(increasing, "arrival times increase");
  Rng r1(derive_seed(3, 1)), r2(derive_seed(3, 1));
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && r1.next() == r2.next();
  expect(same, "a seed repeats its draws");
}

}  // namespace

int run_self_tests() {
  g_failures = 0;
  test_percentile_rule();
  test_rate_search();
  test_checker();
  test_schedules();
  return g_failures;
}

}  // namespace perfbench
