// The two hub workloads.
//
//   pay_open       1,000 channels opened in set-up; the timed phases offer
//                  open-loop Poisson PaymentUpdates across them.
//   session_churn  open-loop Poisson arrivals of new sessions, each a
//                  closed-loop open -> 2 payments -> close script.
//
// Set-up replays every script through ChannelEndpoint against an in-process
// reference ChannelHub with the hubd identity, so each request is
// pre-signed and each expected response is known (RFC-6979 makes them
// byte-exact) before the timed window, which then runs no ECDSA in the
// benchmark process. Each workload alternates a low fixed rate
// (lat_p25_ms) with a high fixed rate (hub CPU per request,
// load.lat_p99_ms), and in traced runs then ramps rising rates for the
// highest one that meets the p99 <= 100 ms limit (load.rate_max).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "channel/manager.hpp"
#include "channel/template_bytecode.hpp"
#include "hub_io.hpp"
#include "ladder.hpp"
#include "net/client.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using tinyevm::U256;
using tinyevm::keccak256;
using tinyevm::secp256k1::PrivateKey;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSetupSlices = 5;
constexpr double kLatencyLimitMs = 100;
/// The ramp stops after this many failing steps in a row.
constexpr int kRampFailures = 2;
constexpr double kDrainSeconds = 10;
/// A run whose generator sent its p99 request later than this is invalid.
constexpr double kMaxSendLagMs = 10;
constexpr std::size_t kPayOpenChannels = 1000;
constexpr std::size_t kLadderSamples = 16;
constexpr int kSelfTimeReps = 3;
constexpr std::size_t kRounds = 10;

struct Shape {
  double low_rate, high_rate;    ///< per second
  std::vector<double> ramp;      ///< rate_max steps, per second
  double step_s;                 ///< offered seconds per ramp step
  std::size_t low_n, high_n;     ///< scripts per rate, over all rounds
};

/// Phase sizes follow --seconds, with floors that keep every reported
/// percentile above the ten-samples-beyond rule. pay_open's high rate is
/// below the 80 payments/s first planned: there one of five seeds missed the
/// 100 ms limit (p99 138 ms on a 4-core x86 container).
Shape shape_for(const std::string& workload, double seconds) {
  const auto at_least = [](std::size_t floor, double v) {
    return std::max(floor, static_cast<std::size_t>(std::lround(v)));
  };
  // Each rate splits into kRounds equal chunks.
  const auto chunked = [](std::size_t n) {
    return (n + kRounds - 1) / kRounds * kRounds;
  };
  if (workload == "pay_open") {
    return {20, 50, {110, 140, 170, 200, 230}, 1.1, chunked(at_least(120, 6.7 * seconds)),
            chunked(at_least(1000, 33 * seconds))};
  }
  return {4, 30, {45, 60, 75, 90, 105, 120}, 1.0, chunked(at_least(60, 2 * seconds)),
          chunked(at_least(250, 8.3 * seconds))};
}

/// Offered units of one ramp step.
std::size_t step_units(const Shape& shape, double rate) {
  return static_cast<std::size_t>(std::lround(rate * shape.step_s));
}

/// One channel's scripted exchange, replayed in set-up.
struct ScriptSpec {
  U256 channel_id;
  std::string key_seed;
  U256 rate;
  std::uint32_t conn = 0;
  std::vector<std::uint64_t> units;  ///< one payment each
  bool close = false;
  std::vector<std::size_t> slots;    ///< exchange-table index per request
};

U256 channel_id_for(const std::string& workload, std::uint64_t seed,
                    std::size_t index) {
  return U256::from_word(keccak256("perfbench/" + workload + "/" +
                                   std::to_string(seed) + "/" +
                                   std::to_string(index)));
}

/// Runs one script through a fresh ChannelEndpoint against the reference
/// hub, filling its table slots. Every expected response must apply, and
/// the endpoint's log must audit against the anchor.
std::string presign(channel::ChannelHub& reference, const ScriptSpec& spec,
                    std::vector<Exchange>& table) {
  const tinyevm::Hash256 anchor = keccak256(std::string_view(kHubAnchor));
  channel::ChannelEndpoint endpoint("device", PrivateKey::from_seed(spec.key_seed),
                                    anchor);
  endpoint.sensors().set_reading(kSensorDevice, U256{kDeviceSensorReading});
  std::size_t slot = 0;
  const auto record = [&](channel::HubRequest request) -> bool {
    Exchange& ex = table[spec.slots[slot++]];
    ex.request = std::move(request);
    ex.expected = reference.handle(ex.request);
    ex.expected.queue_us = 0;
    ex.expected.service_us = 0;
    ex.conn = spec.conn;
    return endpoint.apply(ex.expected);
  };
  const auto open =
      endpoint.open_request(spec.channel_id, spec.rate, kSensorDevice);
  if (!open || !record(*open)) return "reference open failed";
  for (const std::uint64_t units : spec.units) {
    const auto update = endpoint.propose_payment(U256{units});
    if (!update || !record(*update)) return "reference payment failed";
  }
  if (spec.close && !record(endpoint.close_request())) {
    return "reference close failed";
  }
  if (!endpoint.log().audit(anchor)) return "endpoint log fails its audit";
  return {};
}

/// Sum of every sample of metric `name` in a JSON scrape (0 if absent).
double scrape_value(const std::string& json, const std::string& name) {
  const auto at = json.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return 0;
  const auto begin = json.find("\"samples\":[", at);
  const auto end = json.find(']', begin);
  double sum = 0;
  for (auto v = json.find("\"value\":", begin); v < end;
       v = json.find("\"value\":", v + 1)) {
    sum += std::strtod(json.c_str() + v + 8, nullptr);
  }
  return sum;
}

std::string scrape(std::uint16_t port) {
  net::HubClient client;
  if (!client.connect("127.0.0.1", port)) {
    throw std::runtime_error("cannot connect to hubd for a scrape");
  }
  auto text = client.scrape(net::StatsRequest::Format::Json);
  if (!text) throw std::runtime_error("hubd scrape failed");
  return *text;
}

double thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// What one phase (a fixed rate or a ramp step), or several merged,
/// measured.
struct PhaseStats {
  /// Record ranges [first, end), one per phase.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  /// failed: refused, rejected, mismatched, unanswered or never sent;
  /// mismatched: answered, not Busy, and not the expected response.
  std::uint64_t attempted = 0, failed = 0, mismatched = 0;
  std::vector<double> latency_ms;  ///< failures count as missing the limit
  /// Due time of a script's first request to its last response (session
  /// scripts; a one-request script gives its request latency).
  std::vector<double> script_ms;
  double p99_ms = 0;  ///< nearest rank, whatever the sample count
  /// The last request of each phase answered within the limit, which
  /// rules out a backlog that kept growing to the end of the phase.
  bool drained = false;
  bool passed = false;
};

PhaseStats evaluate(const Loader& loader, std::size_t first,
                    std::uint64_t abandoned) {
  PhaseStats p;
  const std::size_t end = loader.records().size();
  p.ranges = {{first, end}};
  p.attempted = end - first + abandoned;
  p.failed = abandoned;
  const RequestRecord* last = nullptr;
  std::vector<std::int64_t> script_due;
  int script_phase = 0;
  for (std::size_t i = first; i < end; ++i) {
    const RequestRecord& r = loader.records()[i];
    if (i == first || r.phase != script_phase) {
      script_due.clear();  // arrival indices restart with every phase
      script_phase = r.phase;
    }
    const bool ok = r.ok && r.recv_ns != 0;
    const double ms = ok ? r.latency_ms() : 1e9;
    p.latency_ms.push_back(ms);
    if (script_due.size() <= r.arrival) script_due.resize(r.arrival + 1, 0);
    if (script_due[r.arrival] == 0) script_due[r.arrival] = r.due_ns;
    if (r.script_end) {
      p.script_ms.push_back(ok ? static_cast<double>(r.recv_ns - script_due[r.arrival]) / 1e6
                               : 1e9);
    }
    if (!ok) ++p.failed;
    if (r.recv_ns != 0 && !r.ok && !r.busy) ++p.mismatched;
    if (last == nullptr || r.due_ns > last->due_ns) last = &r;
  }
  if (p.latency_ms.empty()) return p;
  p.p99_ms = nearest_rank(p.latency_ms, 0.99);
  p.drained = last->latency_ms() <= kLatencyLimitMs;
  p.passed = p.failed == 0 && p.p99_ms <= kLatencyLimitMs && p.drained;
  return p;
}

/// The phases of one rate, pooled.
PhaseStats merge(const std::vector<PhaseStats>& parts) {
  PhaseStats all;
  all.drained = true;
  for (const PhaseStats& p : parts) {
    all.ranges.insert(all.ranges.end(), p.ranges.begin(), p.ranges.end());
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.mismatched += p.mismatched;
    all.latency_ms.insert(all.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    all.script_ms.insert(all.script_ms.end(), p.script_ms.begin(), p.script_ms.end());
    all.drained = all.drained && p.drained;
  }
  if (all.latency_ms.empty()) return all;
  all.p99_ms = nearest_rank(all.latency_ms, 0.99);
  all.passed = all.failed == 0 && all.p99_ms <= kLatencyLimitMs && all.drained;
  return all;
}

std::vector<double> field_of(const Loader& loader, const PhaseStats& p,
                             double (*get)(const RequestRecord&)) {
  std::vector<double> out;
  for (const auto& [first, end] : p.ranges) {
    for (std::size_t i = first; i < end; ++i) {
      const RequestRecord& r = loader.records()[i];
      if (r.ok) out.push_back(get(r));
    }
  }
  return out;
}

/// Sets `name` to the q-percentile of `values`, or fails the run when the
/// ten-samples-beyond rule does not hold.
void set_percentile(RunResult& result, const std::string& name,
                    const std::vector<double>& values, double q,
                    const std::string& unit) {
  const auto v = percentile(values, q);
  if (!v) {
    result.fail(name + ": too few samples (" + std::to_string(values.size()) + ")");
    result.set(name, 0, unit, values.size());
    return;
  }
  result.set(name, *v, unit, values.size());
}

class HubWorkload {
 public:
  explicit HubWorkload(const RunOptions& options)
      : opt_(options),
        churn_(options.workload == "session_churn"),
        shape_(shape_for(options.workload, options.seconds)),
        tracer_(options.trace),
        loader_(table_, tracer_) {}

  RunResult run();

 private:
  void plan();
  void setup();
  std::vector<Arrival> arrivals(std::size_t first_script, std::size_t count,
                                double rate, std::uint64_t stream) const;
  PhaseStats phase(const std::vector<Arrival>& arrivals, int id);
  void ladder();

  const RunOptions& opt_;
  const bool churn_;
  const Shape shape_;
  Tracer tracer_;
  std::vector<Exchange> table_;
  Loader loader_;
  std::vector<ScriptSpec> scripts_;
  /// Timed-phase units in offered order: for pay_open one payment slot
  /// each, for session_churn one session script each.
  std::vector<std::vector<std::size_t>> units_;
  std::size_t next_unit_ = 0;
  std::unique_ptr<HubdProcess> hubd_;
  RunResult result_;
  double open_burst_s_ = 0;
  std::uint64_t setup_attempted_ = 0, setup_failed_ = 0;
};

void HubWorkload::plan() {
  const std::uint64_t seed = opt_.seed;
  Rng picks(derive_seed(seed, 1));
  Rng rates(derive_seed(seed, 2));
  const std::size_t fixed = shape_.low_n + shape_.high_n;
  std::size_t units = fixed;
  if (opt_.trace) {
    for (const double rate : shape_.ramp) units += step_units(shape_, rate);
  }
  const std::size_t channels = churn_ ? units : kPayOpenChannels;
  scripts_.resize(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    ScriptSpec& s = scripts_[c];
    s.channel_id = channel_id_for(opt_.workload, seed, c);
    s.key_seed = "perfbench-device-" + std::to_string(seed) + "-" + std::to_string(c);
    s.rate = U256{1 + rates.below(16)};
    s.conn = static_cast<std::uint32_t>(c % kConnections);
    s.close = churn_;
  }
  if (churn_) {
    for (std::size_t c = 0; c < channels; ++c) {
      ScriptSpec& s = scripts_[c];
      s.units = {1 + picks.below(4), 1 + picks.below(4)};
      for (std::size_t k = 0; k < 4; ++k) s.slots.push_back(4 * c + k);
      units_.push_back(s.slots);
    }
    table_.resize(4 * channels);
    return;
  }
  // pay_open: table = one open per channel, then payments in offered order.
  // The ramp's payments go to distinct channels, so a payment an overloaded
  // step loses strands no later payment on its channel.
  if (units - fixed > channels) throw std::logic_error("ramp exceeds the channels");
  std::vector<std::size_t> ramp_channels(channels);
  for (std::size_t c = 0; c < channels; ++c) ramp_channels[c] = c;
  for (std::size_t c = channels; c > 1; --c) {
    std::swap(ramp_channels[c - 1], ramp_channels[picks.below(c)]);
  }
  table_.resize(channels + units);
  for (std::size_t c = 0; c < channels; ++c) scripts_[c].slots.push_back(c);
  for (std::size_t j = 0; j < units; ++j) {
    ScriptSpec& s =
        scripts_[j < fixed ? picks.below(channels) : ramp_channels[j - fixed]];
    s.units.push_back(1 + picks.below(4));
    s.slots.push_back(channels + j);
    units_.push_back({channels + j});
  }
}

void HubWorkload::setup() {
  const std::int64_t t0 = now_ns();
  hubd_ = std::make_unique<HubdProcess>(opt_.hubd_path, opt_.work_dir);
  if (!loader_.connect(hubd_->port(), kConnections)) {
    throw std::runtime_error("cannot connect to hubd");
  }
  plan();
  channel::ChannelHub::Config config;
  config.workers = kHubWorkers;
  channel::ChannelHub reference("reference", PrivateKey::from_seed(kHubKeySeed),
                                keccak256(std::string_view(kHubAnchor)), config);
  reference.set_sensor_default(kSensorDevice, U256{kHubSensorReading});
  const double fixed_s = static_cast<double>(now_ns() - t0) / 1e9;

  // Set-up runs as kSetupSlices equal slices of the scripts, each timed on
  // its own; setup_s reports their median, scaled to the whole.
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<double> slice_s;
  std::mutex error_mu;
  std::string error;
  for (std::size_t slice = 0; slice < kSetupSlices; ++slice) {
    const std::int64_t start = now_ns();
    std::vector<std::size_t> mine;
    for (std::size_t c = slice; c < scripts_.size(); c += kSetupSlices) {
      mine.push_back(c);
    }
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = cursor++; i < mine.size(); i = cursor++) {
          const std::string why = presign(reference, scripts_[mine[i]], table_);
          if (!why.empty()) {
            std::lock_guard<std::mutex> lock(error_mu);
            error = why;
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    if (!error.empty()) throw std::runtime_error("set-up: " + error);
    if (!churn_) {
      // Open this slice's channels on hubd: a pipelined burst, checked.
      std::vector<Arrival> opens;
      for (const std::size_t c : mine) opens.push_back({0.0, {c}});
      const std::int64_t burst = now_ns();
      const std::size_t first = loader_.run(opens, -1, kDrainSeconds);
      open_burst_s_ += static_cast<double>(now_ns() - burst) / 1e9;
      const PhaseStats p = evaluate(loader_, first, 0);
      setup_attempted_ += p.attempted;
      setup_failed_ += p.failed;
    }
    slice_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  if (!reference.audit_all()) throw std::runtime_error("reference audit failed");
  result_.set("setup_s",
              fixed_s + static_cast<double>(kSetupSlices) * median(slice_s), "s",
              slice_s.size());
}

std::vector<Arrival> HubWorkload::arrivals(std::size_t first_unit,
                                           std::size_t count, double rate,
                                           std::uint64_t stream) const {
  const auto at = poisson_schedule(derive_seed(opt_.seed, stream), rate, count);
  std::vector<Arrival> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({at[i], units_[first_unit + i]});
  }
  return out;
}

PhaseStats HubWorkload::phase(const std::vector<Arrival>& offered, int id) {
  const std::uint64_t abandoned = loader_.abandoned();
  const std::size_t first = loader_.run(offered, id, kDrainSeconds);
  next_unit_ += offered.size();
  return evaluate(loader_, first, loader_.abandoned() - abandoned);
}

RunResult HubWorkload::run() {
  setup();
  const std::string before = scrape(hubd_->port());

  const std::int64_t window_start = now_ns();
  const double thread_cpu_start = thread_cpu_ns();
  const std::size_t spans_start = tracer_.size();

  // The two named rates alternate over kRounds rounds, a low-rate chunk
  // then a high-rate chunk, each with a schedule of its own, so both rates
  // sample the whole window rather than one stretch of a shared host.
  // Latency percentiles pool a rate's chunks; hub CPU per request is the
  // lower quartile over the high-rate chunks (see lat_p25_ms below).
  const std::size_t window_first = loader_.records().size();
  std::vector<PhaseStats> lows, highs;
  std::vector<double> cpu_per_req;
  for (std::size_t r = 0; r < kRounds; ++r) {
    lows.push_back(phase(
        arrivals(next_unit_, shape_.low_n / kRounds, shape_.low_rate, 10 + r), 0));
    const double cpu_before = hubd_->cpu_ms();
    highs.push_back(phase(
        arrivals(next_unit_, shape_.high_n / kRounds, shape_.high_rate, 30 + r), 1));
    const std::uint64_t answered = highs.back().attempted - highs.back().failed;
    cpu_per_req.push_back((hubd_->cpu_ms() - cpu_before) /
                          static_cast<double>(std::max<std::uint64_t>(1, answered)));
  }
  const std::size_t window_end = loader_.records().size();
  const PhaseStats low = merge(lows);
  const PhaseStats high = merge(highs);

  // The ramp, in traced runs only: fixed rates upward until two steps in a
  // row fail.
  std::vector<Step> steps = {{shape_.low_rate, low.p99_ms, low.passed},
                             {shape_.high_rate, high.p99_ms, high.passed}};
  std::vector<PhaseStats> ramp;
  const std::size_t ramp_steps = opt_.trace ? shape_.ramp.size() : 0;
  for (int failing = 0; ramp.size() < ramp_steps && failing < kRampFailures;) {
    const int id = static_cast<int>(ramp.size());
    const double rate = shape_.ramp[ramp.size()];
    ramp.push_back(phase(arrivals(next_unit_, step_units(shape_, rate), rate, 20 + id),
                         2 + id));
    steps.push_back({rate, ramp.back().p99_ms, ramp.back().passed});
    failing = ramp.back().passed ? 0 : failing + 1;
  }
  const double rate_max = rate_max_from_ramp(steps, kLatencyLimitMs);
  const double window_s = static_cast<double>(now_ns() - window_start) / 1e9;
  const double thread_cpu = thread_cpu_ns() - thread_cpu_start;
  const std::size_t window_spans = tracer_.size() - spans_start;

  const std::string after = scrape(hubd_->port());
  const double rss = hubd_->peak_rss_mib();

  // Set-up and the named rates must not fail at all. Past capacity the
  // ramp may see requests shed (Busy) or unanswered, which is what a step
  // failing means; only a wrong answer there fails the run.
  std::uint64_t attempted = setup_attempted_ + low.attempted + high.attempted;
  std::uint64_t failed = setup_failed_ + low.failed + high.failed;
  std::uint64_t ramp_lost = 0;
  for (const PhaseStats& p : ramp) {
    attempted += p.attempted;
    failed += p.mismatched;
    ramp_lost += p.failed - p.mismatched;
  }
  result_.attempted = attempted;
  result_.failed = failed + loader_.protocol_faults();
  if (result_.failed != 0) {
    result_.fail(std::to_string(result_.failed) +
                 " requests failed, were refused, mismatched or went unanswered");
  }
  if (!low.passed || !high.passed) {
    std::fprintf(stderr, "warning: p99 over %.0f ms at a named rate (low %.1f, high %.1f ms)\n",
                 kLatencyLimitMs, low.p99_ms, high.p99_ms);
  }
  if (opt_.trace && (rate_max <= shape_.high_rate || steps.back().passed)) {
    std::fprintf(stderr, "warning: rate_max %.1f lies outside the ramp\n", rate_max);
  }
  // The generator must keep to the schedule of the named rates; past
  // capacity it also reads a growing backlog of responses.
  std::vector<double> lag;
  for (std::size_t i = window_first; i < window_end; ++i) {
    const RequestRecord& r = loader_.records()[i];
    lag.push_back(static_cast<double>(r.send_ns - r.due_ns) / 1e6);
  }
  const auto lag_p99 = percentile(lag, 0.99);
  if (!lag_p99 || *lag_p99 > kMaxSendLagMs) {
    result_.fail("the generator fell behind its schedule; latencies are not the hub's");
  }

  // A shared host's interference only ever adds time, and it comes and goes
  // within a run: the lower quartile tracks the program's own cost, where
  // the median moved by up to a quarter between runs of the same code.
  // session_churn's requests split 1:1 into cheap (open, close) and
  // ECDSA-heavy (payment) ones, which puts a request quantile on the seam
  // between the two; its lat_p25_ms is over whole sessions instead.
  set_percentile(result_, "lat_p25_ms", churn_ ? low.script_ms : low.latency_ms, 0.25,
                 "ms");
  set_percentile(result_, "load.lat_p50_ms", churn_ ? low.script_ms : low.latency_ms, 0.5,
                 "ms");
  set_percentile(result_, "load.lat_p99_ms", high.latency_ms, 0.99, "ms");
  result_.set("load.rate_max", rate_max, "1/s");
  result_.set("hub_cpu_ms_per_req", nearest_rank(cpu_per_req, 0.25), "ms",
              cpu_per_req.size());
  result_.set("hub_rss_mb", rss, "MiB");

  std::string why;
  if (!hubd_->stop(why)) result_.fail(why);

  if (opt_.trace) {
    const auto delta = [&](const char* name) {
      return scrape_value(after, name) - scrape_value(before, name);
    };
    const double payments = delta("tinyevm_hub_payments_total");
    result_.set("crypto.ecdsa_per_payment",
                payments == 0 ? 0
                              : (delta("tinyevm_hub_signatures_total") +
                                 delta("tinyevm_hub_verifications_total")) /
                                    payments,
                "count");
    set_percentile(result_, "channel.hub_service_p50_ms",
                   field_of(loader_, high, [](const RequestRecord& r) {
                     return r.service_us / 1e3;
                   }), 0.5, "ms");
    set_percentile(result_, "channel.hub_service_p99_ms",
                   field_of(loader_, high, [](const RequestRecord& r) {
                     return r.service_us / 1e3;
                   }), 0.99, "ms");
    set_percentile(result_, "channel.hub_queue_p99_ms",
                   field_of(loader_, high, [](const RequestRecord& r) {
                     return r.queue_us / 1e3;
                   }), 0.99, "ms");
    const auto overhead = field_of(loader_, high, [](const RequestRecord& r) {
      return r.net_overhead_ms();
    });
    set_percentile(result_, "net.overhead_p50_ms", overhead, 0.5, "ms");
    set_percentile(result_, "net.overhead_p99_ms", overhead, 0.99, "ms");
    result_.set("channel.hub_rejected", delta("tinyevm_hub_rejected_total"), "count");
    result_.set("channel.hub_sessions", scrape_value(after, "tinyevm_hub_sessions"),
                "count");
    // The closing scrape's own request frame is not a hub request.
    const double batches = delta("tinyevm_net_batches_total");
    result_.set("net.reqs_per_batch",
                batches == 0 ? 0 : (delta("tinyevm_net_frames_in_total") - 1) / batches,
                "count");
    result_.set("net.busy_rejections", delta("tinyevm_net_busy_total"), "count");
    result_.set("net.protocol_errors", delta("tinyevm_net_protocol_errors_total"),
                "count");
    const double hits = scrape_value(after, "tinyevm_cache_hits_total");
    const double misses = scrape_value(after, "tinyevm_cache_misses_total");
    result_.set("evm.cache_hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses),
                "ratio");
    result_.set("evm.cache_evictions", scrape_value(after, "tinyevm_cache_evictions_total"),
                "count");
    const double cycles = scrape_value(after, "tinyevm_hub_vm_cycles_total");
    result_.set("evm.vm_cycles_total", cycles, "count");
    result_.set("evm.mcycles_per_s", cycles / (open_burst_s_ + window_s) / 1e6,
                "Mcycles/s");
    set_percentile(result_, "bench.send_lag_p99_ms", lag, 0.99, "ms");

    // Tracing overhead: the spans the window recorded, as a share of the
    // generator thread's CPU time in the window.
    result_.set("bench.trace_overhead_pct",
                100.0 * span_cost_ns() * static_cast<double>(window_spans) / thread_cpu,
                "%");
    ladder();
    const std::string path =
        opt_.work_dir + "/trace-" + opt_.workload + "-" + std::to_string(opt_.seed) + ".json";
    if (!tracer_.write_chrome_json(path)) result_.fail("cannot write " + path);
    std::fprintf(stderr, "trace: %s (%zu spans)\n", path.c_str(), tracer_.size());
  }
  std::fprintf(stderr,
               "%s: low %.0f/s over %zu requests; high %.0f/s over %zu; "
               "generator lag p99 %.3f ms; ramp lost %llu\n",
               opt_.workload.c_str(), shape_.low_rate, low.latency_ms.size(),
               shape_.high_rate, high.latency_ms.size(), lag_p99.value_or(-1),
               static_cast<unsigned long long>(ramp_lost));
  for (const Step& st : steps) {
    std::fprintf(stderr, "  step %.0f/s p99 %.1f ms %s\n", st.rate, st.p99_ms,
                 st.passed ? "pass" : "fail");
  }
  return result_;
}

void HubWorkload::ladder() {
  // A seeded sample of distinct scripts that have at least one payment (a
  // channel opened twice on the ladder's hub would be refused).
  Rng pick(derive_seed(opt_.seed, 3));
  std::vector<const ScriptSpec*> sample;
  for (int tries = 0; sample.size() < kLadderSamples && tries < 100000; ++tries) {
    const ScriptSpec& s = scripts_[pick.below(scripts_.size())];
    if (!s.units.empty() && std::find(sample.begin(), sample.end(), &s) == sample.end()) {
      sample.push_back(&s);
    }
  }
  const PrivateKey hub_key = PrivateKey::from_seed(kHubKeySeed);
  const tinyevm::Hash256 anchor = keccak256(std::string_view(kHubAnchor));
  channel::ChannelHub::Config config;
  config.workers = kHubWorkers;
  channel::ChannelHub hub("ladder", hub_key, anchor, config);
  hub.set_sensor_default(kSensorDevice, U256{kHubSensorReading});
  tinyevm::evm::Vm vm(tinyevm::evm::VmConfig::tiny());

  std::vector<double> open_us, pay_us, close_us, countersign_self, accept_self;
  std::vector<double> enc_req, dec_req, enc_resp;
  std::vector<tinyevm::Hash256> digests;
  constexpr int kCodecLoop = 100;
  for (const ScriptSpec* s : sample) {
    const Exchange& open = table_[s->slots[0]];
    const Exchange& pay = table_[s->slots[1]];
    channel::HubResponse got;
    open_us.push_back(timed_us(tracer_, "hub.handle.open", [&] { got = hub.handle(open.request); }));
    if (!same_response(got, open.expected)) result_.fail("ladder: hub open differs");
    pay_us.push_back(timed_us(tracer_, "hub.handle.payment", [&] { got = hub.handle(pay.request); }));
    if (!same_response(got, pay.expected)) result_.fail("ladder: hub payment differs");
    close_us.push_back(timed_us(tracer_, "hub.handle.close", [&] {
      got = hub.handle(channel::CloseRequest{s->channel_id});
    }));
    if (!got.ok()) result_.fail("ladder: hub close rejected");

    // Session self time: the call minus the ECDSA it makes inside.
    const auto& proposal = std::get<channel::PaymentUpdate>(pay.request).proposal;
    const tinyevm::Hash256 digest = proposal.state.digest();
    digests.push_back(digest);
    channel::ChannelSession session(anchor, tinyevm::evm::VmConfig::tiny());
    session.sensors().set_reading(kSensorDevice, U256{kHubSensorReading});
    if (!session.open(vm, s->channel_id, s->rate, kSensorDevice)) {
      result_.fail("ladder: session open failed");
      continue;
    }
    // countersign leaves the session as it was, so it and the sign inside
    // it are each timed as the fastest of a few calls: their difference is
    // a few percent of either, and single calls bury it in noise.
    std::optional<tinyevm::secp256k1::Signature> counter;
    double cs = 1e300, sign = 1e300;
    for (int rep = 0; rep < kSelfTimeReps; ++rep) {
      cs = std::min(cs, timed_us(tracer_, "session.countersign", [&] {
                      counter = session.countersign(proposal.state, hub_key);
                    }));
      sign = std::min(sign, timed_us(tracer_, "crypto.sign", [&] {
                        (void)tinyevm::secp256k1::sign(digest, hub_key);
                      }));
    }
    if (!counter || !pay.expected.state || *counter != pay.expected.state->receiver_sig) {
      result_.fail("ladder: countersignature differs");
      continue;
    }
    channel::SignedState full = proposal;
    full.receiver_sig = *counter;
    bool accepted = false;
    const double acc = timed_us(tracer_, "session.accept", [&] { accepted = session.accept(full); });
    const double recovers = timed_us(tracer_, "crypto.recover", [&] {
      (void)tinyevm::secp256k1::recover_address(digest, full.sender_sig);
      (void)tinyevm::secp256k1::recover_address(digest, full.receiver_sig);
    });
    if (!accepted) result_.fail("ladder: session refused its own countersigned state");
    countersign_self.push_back(cs - sign);
    accept_self.push_back(acc - recovers);

    for (const Exchange* ex : {&open, &pay}) {
      net::Bytes bytes;
      enc_req.push_back(timed_us(tracer_, "net.encode_request", [&] {
        for (int i = 0; i < kCodecLoop; ++i) bytes = net::encode_request(ex->request, 1);
      }) / kCodecLoop);
      net::FrameReader reader;
      reader.feed(bytes);
      const auto frame = reader.next();
      std::optional<channel::HubRequest> back;
      dec_req.push_back(timed_us(tracer_, "net.decode_request", [&] {
        for (int i = 0; i < kCodecLoop; ++i) back = net::decode_request(*frame);
      }) / kCodecLoop);
      if (!back || *back != ex->request) result_.fail("ladder: request codec round trip");
      enc_resp.push_back(timed_us(tracer_, "net.encode_response", [&] {
        for (int i = 0; i < kCodecLoop; ++i) bytes = net::encode_response(ex->expected, 1);
      }) / kCodecLoop);
    }
  }
  result_.set("channel.hub_handle_open_us", median(open_us), "us", open_us.size());
  result_.set("channel.hub_handle_payment_us", median(pay_us), "us", pay_us.size());
  result_.set("channel.hub_handle_close_us", median(close_us), "us", close_us.size());
  // Self times are differences of two noisy timings; below zero is noise.
  result_.set("channel.session_countersign_us", std::max(0.0, median(countersign_self)),
              "us", countersign_self.size());
  result_.set("channel.session_accept_us", median(accept_self), "us", accept_self.size());
  result_.set("net.encode_request_us", median(enc_req), "us", enc_req.size());
  result_.set("net.decode_request_us", median(dec_req), "us", dec_req.size());
  result_.set("net.encode_response_us", median(enc_resp), "us", enc_resp.size());

  // The hub's only code: the template's constructor and runtime.
  std::vector<tinyevm::evm::Bytes> codes;
  for (std::size_t i = 0; i < kLadderSamples / 2; ++i) {
    codes.push_back(channel::payment_channel_init_code(kSensorDevice));
    codes.push_back(channel::payment_channel_runtime());
  }
  run_core_ladder(digests, codes, tracer_, result_);
}

}  // namespace

RunResult run_hub_workload(const RunOptions& options) {
  HubWorkload workload(options);
  return workload.run();
}

}  // namespace perfbench
