#include "trace.h"

#include <cstdio>

namespace perf {

uint64_t Tracer::Record(const std::string& name, uint64_t request,
                        uint64_t parent, Clock::time_point start,
                        Clock::time_point end,
                        std::vector<std::pair<std::string, double>> attrs) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(
      Span{id, parent, request, name, start, end, std::move(attrs)});
  return id;
}

void Tracer::Counter(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.emplace_back(name, value);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  };
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"span\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), ns(s.start),
                 ns(s.end));
    for (const auto& [key, value] : s.attrs) {
      std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
    }
    std::fprintf(f, "}\n");
  }
  for (const auto& [name, value] : counters_) {
    std::fprintf(f, "{\"counter\":\"%s\",\"value\":%.17g}\n", name.c_str(),
                 value);
  }
  return std::fclose(f) == 0;
}

}  // namespace perf
