// In-memory span and counter recorder for the benchmark's traced runs.
//
// Spans are recorded from the harness around calls into gqzoo's public
// functions (engine, planner, evaluators, server client); nothing inside
// the library is instrumented. A span carries its name, start and end on
// the steady clock, the span that caused it (0 = none) and the request it
// belongs to, plus numeric attributes (rows produced, bytes, ...). Counter
// deltas taken from the engine's MetricsRegistry over a phase are recorded
// next to the spans. Everything stays in memory until `WriteJsonLines`
// writes it out when the run ends; run.py reduces the file to the
// per-layer metrics.
#ifndef GQZOO_PERFBENCH_TRACE_H_
#define GQZOO_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and returns span id 0.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id, which later spans name
  /// as their parent.
  uint64_t Record(const std::string& name, uint64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end,
                  std::vector<std::pair<std::string, double>> attrs = {});

  /// Records the change of one registry counter (or a gauge reading) over
  /// a phase.
  void Counter(const std::string& name, double value);

  /// One JSON object per line: spans first ("span"), then counters.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, double>> counters_;
};

}  // namespace perf

#endif  // GQZOO_PERFBENCH_TRACE_H_
