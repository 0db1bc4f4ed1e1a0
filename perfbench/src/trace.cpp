#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double span_cost_ns() {
  constexpr int kSpans = 100000;
  Tracer probe(true);
  const std::int64_t start = now_ns();
  for (int i = 0; i < kSpans; ++i) probe.add("calibrate", "bench", now_ns(), now_ns());
  return static_cast<double>(now_ns() - start) / kSpans;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                 first ? "" : ",", s.name, s.category, s.track,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    if (s.conn >= 0) {
      std::fprintf(f, ",\"args\":{\"conn\":%lld,\"seq\":%lld}",
                   static_cast<long long>(s.conn), static_cast<long long>(s.seq));
    }
    std::fputc('}', f);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
