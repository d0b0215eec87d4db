// The benchmark's three workloads: seeded graphs and request streams.
//
// Everything here is derived from the run's seed; gqzoo only ever sees the
// generated graph and request texts.
#ifndef GQZOO_PERFBENCH_WORKLOADS_H_
#define GQZOO_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/graph/graph.h"
#include "src/server/client.h"

namespace perf {

/// SplitMix64: small, fast and identical on every platform (unlike the
/// standard library's distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a run seed and stream tags.
uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// One request of a workload: a read (any zoo language) or a write batch.
struct Request {
  bool write = false;
  gqzoo::QueryLanguage language = gqzoo::QueryLanguage::kRpq;
  std::string text;
  gqzoo::PathRequestParams paths;
  size_t max_display_rows = 50;
  std::optional<size_t> max_results;
  std::optional<size_t> max_path_length;
  bool optimize = false;  // CoreGQL WHERE pushdown
  /// The answer does not depend on the write stream, so it can be checked
  /// against an in-process re-execution after the run.
  bool stable = true;
  std::vector<std::string> ops;  // write: mutation op lines
  size_t conn = 0;               // wire_mixed: connection that sends it
  std::string tag;               // template name, for reports
};

/// The engine request for `r` (reads only).
gqzoo::QueryRequest ToQuery(const Request& r);
/// The wire options mirroring `ToQuery(r)`.
gqzoo::server::ClientQueryOptions ToWire(const Request& r);
/// Identifies a distinct read (language, text and path parameters).
std::string ReadKey(const Request& r);

/// Per-request deadline: generous, so a healthy run never hits it.
inline constexpr uint32_t kTimeoutMs = 30000;

/// A random multi-label property graph: nodes `n<i>` (label N, property
/// id = i), `edges` edges with labels a, b, c, d drawn uniformly and an
/// integer property k in [0, 100). With `regular`, sources and labels are
/// dealt round-robin instead (edge i leaves node i % nodes with label
/// i / nodes % 4) and only targets are random, so every node has the same
/// out-edges per label and a point lookup costs the same from any node.
void AddRandomComponent(gqzoo::PropertyGraph* g, size_t nodes, size_t edges,
                        uint64_t seed, bool regular = false);

/// The edges AddRandomComponent adds, as (source, target, label index).
struct RandomEdge {
  uint32_t src;
  uint32_t tgt;
  uint32_t label;
};
std::vector<RandomEdge> RandomComponentEdges(size_t nodes, size_t edges,
                                             uint64_t seed,
                                             bool regular = false);

// --- wire_mixed -------------------------------------------------------------

/// Connections (one generator thread each) of the open loop.
inline constexpr size_t kConnections = 4;
/// Offered rate of the open loop's main phase, requests per second.
inline constexpr double kRateQps = 20;
/// Zipf exponent of the node constants.
inline constexpr double kZipfS = 1.0;

/// What the smoke runs shrink; everything else is a named constant.
struct WireMixedConfig {
  size_t nodes = 2000;
  size_t edges = 8000;  // one out-edge per label per node
  std::vector<double> ladder;    // slo_qps rate ladder
  double ladder_rung_seconds = 1.0;
};

/// Open-loop mixed traffic: point lookups with Zipf-skewed node constants
/// (far more distinct texts than the plan cache holds), 10% reads that
/// stream many 4 KiB ROWS chunks, and 10% writes that delete one edge of
/// the sparse label `w` and add another, so the graph keeps its size. Each
/// connection owns one chain of `w` edges, so its writes stay valid in any
/// interleaving.
class WireMixed {
 public:
  WireMixed(uint64_t seed, WireMixedConfig config);

  gqzoo::PropertyGraph MakeGraph() const;

  /// The next request of connection `conn` (deterministic per connection).
  /// Connections may call this, NextWrite and Acked concurrently: each
  /// touches only its own connection's state.
  Request Next(size_t conn);
  /// A read of the given template index (for the byte-identity gate).
  Request TemplateRead(size_t index, size_t conn);
  static size_t NumTemplates();

  /// A write of connection `conn`, regardless of the mix.
  Request NextWrite(size_t conn);
  /// Call after the server acked (or rejected) the write `r`.
  void Acked(const Request& r, bool ok);
  /// The `w` edges that must exist after every acked write:
  /// name -> (source name, target name).
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>>
  ExpectedWEdges() const;
  size_t failed_writes() const { return failed_writes_.load(); }

 private:
  struct Chain {
    size_t next = 0;     // index of the edge the next write adds
    size_t live = 0;     // index of the live (acked) edge
    std::pair<std::string, std::string> live_ends;
    std::pair<std::string, std::string> pending_ends;
  };
  size_t ZipfNode(Rng* rng) const;
  std::string Node(size_t i) const { return "n" + std::to_string(i); }
  Request Read(size_t kind, Rng* rng, size_t conn) const;

  WireMixedConfig config_;
  uint64_t seed_;
  std::vector<double> zipf_cdf_;
  std::vector<size_t> rank_to_node_;
  std::vector<Rng> streams_;
  std::vector<std::vector<size_t>> decks_;  // per connection: kinds left
  std::vector<Chain> chains_;
  std::atomic<size_t> failed_writes_{0};  // connections report concurrently
};

// --- join_heavy / path_heavy --------------------------------------------------

/// Requests the closed loop's generator keeps submitted.
inline constexpr size_t kOutstanding = 4;

struct ClosedConfig {
  size_t nodes = 0;
  size_t edges = 0;
  size_t diamond_segments = 0;  // path_heavy: Figure 5 chain
  size_t ring_accounts = 0;     // path_heavy: transfer ring
};

/// A closed-loop workload: a fixed set of fewer than 50 distinct reads over
/// one seeded graph, sent in a seeded order that visits every read
/// equally often.
class ClosedWorkload {
 public:
  ClosedWorkload(std::string name, uint64_t seed, ClosedConfig config);

  gqzoo::PropertyGraph MakeGraph() const;
  const std::vector<Request>& reads() const { return reads_; }
  /// The i-th request of the send order.
  const Request& At(size_t i) const { return reads_[order_[i % order_.size()]]; }
  size_t IndexAt(size_t i) const { return order_[i % order_.size()]; }

  /// Expected row counts known by construction (independent of gqzoo),
  /// keyed by read index: the Figure 5 path count and the ring detour.
  const std::vector<std::pair<size_t, size_t>>& pinned_rows() const {
    return pinned_rows_;
  }
  /// Expected shortest-path length for ring reads, keyed by read index.
  const std::vector<std::pair<size_t, size_t>>& pinned_lengths() const {
    return pinned_lengths_;
  }

 private:
  void BuildJoinHeavy();
  void BuildPathHeavy();

  std::string name_;
  uint64_t seed_;
  ClosedConfig config_;
  std::vector<Request> reads_;
  std::vector<size_t> order_;
  std::vector<std::pair<size_t, size_t>> pinned_rows_;
  std::vector<std::pair<size_t, size_t>> pinned_lengths_;
  size_t ring_cheap_ = 0;  // ring edge acct<i> -> acct<i+1> that is cheap
};

}  // namespace perf

#endif  // GQZOO_PERFBENCH_WORKLOADS_H_
