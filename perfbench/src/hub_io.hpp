// The hub side of the benchmark's plumbing: the tinyevm_hubd child process
// under test, the /proc counters read from it, and the single-threaded
// open-loop load generator that replays pre-signed requests over a few TCP
// connections and checks every response against its expected bytes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "channel/hub.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "trace.hpp"

namespace perfbench {

namespace channel = tinyevm::channel;
namespace net = tinyevm::net;

/// Identity and sensor default the hub under test and the reference hub
/// share, passed to hubd explicitly rather than relying on its defaults.
inline constexpr const char* kHubKeySeed = "perfbench-hub-key";
inline constexpr const char* kHubAnchor = "perfbench-hub-anchor";
inline constexpr std::uint32_t kSensorDevice = 7;
inline constexpr std::uint64_t kHubSensorReading = 21;
inline constexpr std::uint64_t kDeviceSensorReading = 22;
inline constexpr std::size_t kHubWorkers = 2;

/// A running `tinyevm_hubd --workers 2 --port 0` child. The destructor
/// kills and reaps it if stop() was never called.
class HubdProcess {
 public:
  HubdProcess(const std::string& binary, const std::string& work_dir);
  ~HubdProcess();
  HubdProcess(const HubdProcess&) = delete;
  HubdProcess& operator=(const HubdProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// CPU time of the child, all threads, milliseconds.
  [[nodiscard]] double cpu_ms() const;
  /// Peak resident set (VmHWM) of the child, MiB.
  [[nodiscard]] double peak_rss_mib() const;

  /// SIGTERM, then waits for the graceful drain. True when the child
  /// exited 0 and printed its "drained:" line.
  bool stop(std::string& why);

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string log_path_;
};

/// One request with the response the reference hub gave for it.
struct Exchange {
  channel::HubRequest request;
  channel::HubResponse expected;
  std::uint32_t conn = 0;  ///< the connection its channel is pinned to
};

/// Status, kind, channel id, contract and the full SignedState; the
/// telemetry fields (queue_us, service_us) are not compared.
bool same_response(const channel::HubResponse& got,
                   const channel::HubResponse& want);

/// Offered load: the exchanges of one script are sent closed-loop (each
/// after the previous response), the first at `at_s` into the phase.
struct Arrival {
  double at_s = 0;
  std::vector<std::size_t> script;  ///< indices into the exchange table
};

struct RequestRecord {
  std::size_t exchange = 0;
  int phase = 0;
  std::size_t arrival = 0;  ///< which arrival of its phase it belongs to
  bool script_end = false;  ///< the last request of its script
  std::int64_t due_ns = 0;      ///< when it was due to be sent
  std::int64_t send_ns = 0;     ///< when the generator started sending it
  std::int64_t written_ns = 0;  ///< after the socket write
  std::int64_t recv_ns = 0;     ///< response read; 0 = unanswered
  std::uint32_t queue_us = 0;   ///< hub-reported
  std::uint32_t service_us = 0;
  bool ok = false;    ///< answered, and equal to the expected response
  bool busy = false;  ///< answered Busy: shed by the hub's backpressure

  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(recv_ns - due_ns) / 1e6;
  }
  /// End-to-end from send minus the hub's queue and service time.
  [[nodiscard]] double net_overhead_ms() const {
    return static_cast<double>(recv_ns - send_ns) / 1e6 -
           (queue_us + service_us) / 1e3;
  }
};

/// The load generator: one thread, `connect()`ed connections, no ECDSA.
class Loader {
 public:
  Loader(const std::vector<Exchange>& table, Tracer& tracer)
      : table_(table), tracer_(tracer) {}

  bool connect(std::uint16_t port, std::size_t connections);

  /// Replays `arrivals` as phase `phase` and returns once every script has
  /// finished or `drain_s` after the last arrival. Returns the index of
  /// the phase's first record.
  std::size_t run(const std::vector<Arrival>& arrivals, int phase,
                  double drain_s);

  [[nodiscard]] const std::vector<RequestRecord>& records() const {
    return records_;
  }
  /// Requests never sent because an earlier step of their script failed.
  [[nodiscard]] std::uint64_t abandoned() const { return abandoned_; }
  /// Responses that matched no request, duplicates, or stream errors.
  [[nodiscard]] std::uint64_t protocol_faults() const { return faults_; }

 private:
  struct Conn {
    net::Fd fd;
    net::FrameReader reader;
    std::uint32_t next_seq = 1;
    std::vector<std::size_t> record_of_seq;  ///< seq - 1 -> record index
    net::Bytes out;
    std::size_t out_pos = 0;
    bool dead = false;
  };
  struct Pending {
    std::size_t arrival = 0;
    std::size_t step = 0;
    std::int64_t due_ns = 0;
  };

  void send(const std::vector<Arrival>& arrivals, const Pending& p, int phase);
  void flush(Conn& conn);
  void read_ready(std::size_t conn_index, std::vector<Pending>& ready);

  const std::vector<Exchange>& table_;
  Tracer& tracer_;
  std::vector<Conn> conns_;
  std::vector<RequestRecord> records_;
  /// Per record: (arrival, step) of its script position in the live phase.
  std::vector<Pending> position_;
  const std::vector<Arrival>* live_ = nullptr;
  std::size_t outstanding_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t faults_ = 0;
};

}  // namespace perfbench
