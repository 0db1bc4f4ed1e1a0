// In-memory span recorder for the traced run, written out as Chrome-trace
// JSON (chrome://tracing, Perfetto) when the run ends. Spans come only from
// the benchmark's own code, around its calls into each layer; a request's
// spans share the key (connection, seq).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  const char* category = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t track = 0;  ///< Chrome "tid": connection or worker index
  std::int64_t conn = -1;   ///< request key, -1 when not a request span
  std::int64_t seq = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  void add(const char* name, const char* category, std::int64_t start_ns,
           std::int64_t end_ns, std::uint32_t track = 0,
           std::int64_t conn = -1, std::int64_t seq = -1) {
    if (!enabled_) return;
    spans_.push_back({name, category, start_ns, end_ns, track, conn, seq});
  }

  /// Appends another tracer's spans (per-thread tracers merge here).
  void absorb(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  /// Writes every span as a complete ("X") event; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

/// Measured cost of recording one span (two clock reads and a record), in
/// nanoseconds: the traced run's overhead per span.
double span_cost_ns();

}  // namespace perfbench
