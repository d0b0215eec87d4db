// gqzoo_perf: runs one benchmark workload against gqzoo and writes a
// record of raw measurements.
//
//   gqzoo_perf --workload wire_mixed|join_heavy|path_heavy --seed N
//              --seconds S --trace 0|1 --work-dir DIR --out FILE
//              [--smoke] [--inject-mismatch]
//
// Phases: set-up (repeated), correctness gate, the timed
// untraced phase, and with --trace 1 a traced phase plus a serial pairing
// pass that times the layer entry points one by one. Every answer is
// checked; a failed check prints "GATE FAILED" and exits 3 without writing
// a record. The record holds every latency sample; perfbench/run.py builds
// this program, runs it and computes every median and percentile from the
// record and span file.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/crpq/eval.h"
#include "src/crpq/modes.h"
#include "src/datatest/dl_eval.h"
#include "src/engine/engine.h"
#include "src/engine/plan.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/csr.h"
#include "src/planner/stats.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/coregql/group_eval.h"
#include "src/rpq/rpq_eval.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/thread_pool.h"
#include "trace.h"
#include "workloads.h"

#ifndef GQZOO_PERF_BUILD_TYPE
#define GQZOO_PERF_BUILD_TYPE "unknown"
#endif

namespace perf {
namespace {

namespace fs = std::filesystem;
using gqzoo::PropertyGraph;
using gqzoo::QueryEngine;
using gqzoo::QueryLanguage;
using gqzoo::QueryResponse;
using gqzoo::Result;

constexpr size_t kThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string out;
  bool smoke = false;
  bool inject_mismatch = false;
};

[[noreturn]] void GateFailed(const std::string& why) {
  std::printf("GATE FAILED: %s\n", why.c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// A JSON array of numbers, written with all their digits.
std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ", ",
                  std::isfinite(values[i]) ? values[i] : 0.0);
    out += buf;
  }
  return out + "]";
}

/// A JSON object of per-template latency lists.
std::string JsonByTag(const std::map<std::string, std::vector<double>>& by_tag) {
  std::string out = "{";
  for (const auto& [tag, v] : by_tag) {
    if (out.size() > 1) out += ", ";
    out += "\"" + tag + "\": " + JsonList(v);
  }
  return out + "}";
}

uint64_t HashText(std::string_view text, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- JSON record ---------------------------------------------------------------

class Record {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    fields_.push_back("\"" + key + "\": " + buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) esc += c;
    }
    fields_.push_back("\"" + key + "\": \"" + esc + "\"");
  }
  /// `json` is written as the value as it is.
  void Raw(const std::string& key, const std::string& json) {
    fields_.push_back("\"" + key + "\": " + json);
  }
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", fields_[i].c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> fields_;
};

// --- registry deltas -------------------------------------------------------------

/// The MetricsRegistry counters the per-layer metrics are derived from.
std::vector<std::pair<std::string, double>> ReadCounters(QueryEngine& engine) {
  const gqzoo::MetricsRegistry& m = engine.metrics();
  std::vector<std::pair<std::string, double>> out = {
      {"queries_total", m.queries_total.value()},
      {"queries_error", m.queries_error.value()},
      {"cache_hits", m.cache_hits.value()},
      {"cache_misses", m.cache_misses.value()},
      {"overloaded_shed", m.overloaded_shed.value()},
      {"write_batches", m.write_batches.value()},
      {"write_ops", m.write_ops.value()},
      {"compactions_run", m.compactions_run.value()},
      {"merged_view_builds", m.merged_view_builds.value()},
      {"plans_invalidated", m.plans_invalidated.value()},
      {"server_queries", m.server_queries.value()},
      {"server_stream_chunks", m.server_stream_chunks.value()},
      {"server_stream_bytes", m.server_stream_bytes.value()},
  };
  double conj = 0, wcoj = 0;
  for (QueryLanguage l : {QueryLanguage::kCrpq, QueryLanguage::kDlCrpq,
                          QueryLanguage::kCoreGql}) {
    conj += m.queries_by_language[static_cast<size_t>(l)].value();
    wcoj += m.wcoj_by_language[static_cast<size_t>(l)].value();
  }
  out.push_back({"conjunctive_queries", conj});
  out.push_back({"wcoj_executions", wcoj});
  return out;
}

void RecordDeltas(Tracer* tracer,
                  const std::vector<std::pair<std::string, double>>& before,
                  QueryEngine& engine) {
  const auto after = ReadCounters(engine);
  for (size_t i = 0; i < after.size(); ++i) {
    tracer->Counter(after[i].first, after[i].second - before[i].second);
  }
  tracer->Counter("queue_high_water",
                  engine.metrics().queue_depth_high_water.value());
  tracer->Counter("peak_query_bytes",
                  engine.metrics().peak_query_bytes.value());
}

QueryEngine::Options EngineOptions() {
  QueryEngine::Options options;
  options.num_threads = kThreads;
  return options;
}

// --- paired layer calls -------------------------------------------------------------

/// What the pairing pass keeps between requests: a pool for the parallel
/// evaluators, and the planner statistics of the snapshot last seen (the
/// engine keeps them per view; holding the snapshot keeps it comparable).
struct PairingContext {
  gqzoo::ThreadPool pool{kThreads};
  std::shared_ptr<const gqzoo::GraphSnapshot> stats_of;
  std::unique_ptr<gqzoo::SnapshotStats> stats;
};

/// Times `CompilePlan` and the snapshot-substrate evaluator entry point a
/// request reaches, as children of the span `parent`. The evaluator runs
/// with the options the engine would pass by default.
void PairedLayers(const Request& r, QueryEngine& engine, PairingContext* ctx,
                  Tracer* tracer, uint64_t req, uint64_t parent) {
  std::shared_ptr<const PropertyGraph> graph = engine.graph_snapshot();
  std::shared_ptr<const gqzoo::GraphSnapshot> snap = engine.csr_snapshot();
  if (ctx->stats_of != snap) {
    ctx->stats_of = snap;
    ctx->stats = std::make_unique<gqzoo::SnapshotStats>(*snap);
  }
  gqzoo::ThreadPool* pool = &ctx->pool;
  Clock::time_point t0 = Clock::now();
  gqzoo::PlanOptions plan_options;
  plan_options.optimize = r.optimize;
  Result<gqzoo::PlanPtr> compiled =
      gqzoo::CompilePlan(r.language, r.text, *graph, engine.graph_epoch(),
                         plan_options, ctx->stats.get());
  Clock::time_point t1 = Clock::now();
  if (!compiled.ok()) GateFailed("compile '" + r.text + "': " + compiled.error().message());
  tracer->Record("planner.compile", req, parent, t0, t1,
                 {{"language", static_cast<double>(r.language)}});
  const gqzoo::Plan& plan = *compiled.value();
  const PropertyGraph& g = *graph;
  const gqzoo::GraphSnapshot& s = *snap;

  t0 = Clock::now();
  if (const auto* rpq = std::get_if<gqzoo::RpqPlan>(&plan.compiled)) {
    gqzoo::ParallelRpqOptions o;
    o.pool = pool;
    const size_t pairs = gqzoo::EvalRpqParallel(s, rpq->nfa, o).size();
    tracer->Record("rpq.eval", req, parent, t0, Clock::now(),
                   {{"pairs", static_cast<double>(pairs)}});
  } else if (const auto* crpq = std::get_if<gqzoo::CrpqPlan>(&plan.compiled)) {
    gqzoo::CrpqEvalOptions o;
    o.snapshot = &s;
    o.pool = pool;
    o.atom_nfas = &crpq->atom_nfas;
    o.join_order = &crpq->join_order;
    if (crpq->wcoj.has_value()) o.wcoj = &*crpq->wcoj;
    auto res = gqzoo::EvalCrpq(g.skeleton(), crpq->query, o);
    if (!res.ok()) GateFailed("EvalCrpq: " + res.error().message());
    tracer->Record("crpq.eval", req, parent, t0, Clock::now(),
                   {{"rows", static_cast<double>(res.value().rows.size())},
                    {"wcoj", crpq->wcoj.has_value() ? 1.0 : 0.0}});
  } else if (const auto* dl = std::get_if<gqzoo::DlCrpqPlan>(&plan.compiled)) {
    gqzoo::DlCrpqEvalOptions o;
    o.snapshot = &s;
    o.atom_nfas = &dl->atom_nfas;
    o.join_order = &dl->join_order;
    if (dl->wcoj.has_value()) o.wcoj = &*dl->wcoj;
    auto res = gqzoo::EvalDlCrpq(g, dl->query, o);
    if (!res.ok()) GateFailed("EvalDlCrpq: " + res.error().message());
    tracer->Record("datatest.eval", req, parent, t0, Clock::now(),
                   {{"rows", static_cast<double>(res.value().rows.size())}});
  } else if (const auto* gql = std::get_if<gqzoo::CoreGqlPlan>(&plan.compiled)) {
    gqzoo::CoreQueryEvalOptions o;
    o.path_options.snapshot = &s;
    o.block_orders = &gql->block_orders;
    if (!gql->block_wcoj.empty()) o.block_wcoj = &gql->block_wcoj;
    auto res = gqzoo::EvalCoreGqlQuery(g, gql->query, o);
    if (!res.ok()) GateFailed("EvalCoreGqlQuery: " + res.error().message());
    tracer->Record("coregql.eval", req, parent, t0, Clock::now(),
                   {{"rows", static_cast<double>(res.value().relation.NumRows())}});
  } else if (const auto* group = std::get_if<gqzoo::GqlGroupPlan>(&plan.compiled)) {
    gqzoo::CorePathEvalOptions o;
    o.snapshot = &s;
    auto res = gqzoo::EvalGqlGroupPattern(g, *group->pattern, o);
    if (!res.ok()) GateFailed("EvalGqlGroupPattern: " + res.error().message());
    tracer->Record("coregql.group_eval", req, parent, t0, Clock::now(),
                   {{"rows", static_cast<double>(res.value().rows.size())}});
  } else if (const auto* paths = std::get_if<gqzoo::PathsPlan>(&plan.compiled)) {
    const std::optional<gqzoo::NodeId> u = g.FindNode(r.paths.from);
    const std::optional<gqzoo::NodeId> v = g.FindNode(r.paths.to);
    if (!u || !v) GateFailed("unknown path endpoint in '" + r.text + "'");
    gqzoo::EnumerationLimits limits;
    limits.max_results = r.max_results.value_or(50);
    limits.max_length = r.max_path_length.value_or(32);
    if (paths->dl_nfa.has_value()) {
      gqzoo::DlEvaluator evaluator(g, *paths->dl_nfa, &s);
      const size_t n =
          evaluator.CollectModePaths(*u, *v, r.paths.mode, limits).size();
      tracer->Record("datatest.eval", req, parent, t0, Clock::now(),
                     {{"paths", static_cast<double>(n)}});
    } else if (r.paths.k_shortest > 0 || r.paths.mode == gqzoo::PathMode::kAll) {
      gqzoo::Pmr pmr = gqzoo::BuildPmrBetween(s, *paths->nfa, *u, *v);
      const Clock::time_point t_built = Clock::now();
      tracer->Record("pmr.build", req, parent, t0, t_built,
                     {{"pmr_edges", static_cast<double>(pmr.NumEdges())}});
      const size_t n =
          r.paths.k_shortest > 0
              ? gqzoo::KShortestPathBindings(pmr, r.paths.k_shortest).size()
              : gqzoo::CollectPathBindings(pmr, limits).size();
      tracer->Record("pmr.enum", req, parent, t_built, Clock::now(),
                     {{"paths", static_cast<double>(n)},
                      {"pmr_edges", static_cast<double>(pmr.NumEdges())}});
    } else {
      const size_t n = gqzoo::CollectModePaths(s, *paths->nfa, *u, *v,
                                               r.paths.mode, limits)
                           .size();
      tracer->Record("crpq.modes", req, parent, t0, Clock::now(),
                     {{"paths", static_cast<double>(n)}});
    }
  }
}

/// Times the set-up artifacts the engine builds internally, on its current
/// graph: the CSR snapshot and the planner statistics.
void TimeSnapshotBuild(QueryEngine& engine, Tracer* tracer) {
  std::shared_ptr<const PropertyGraph> graph = engine.graph_snapshot();
  Clock::time_point t0 = Clock::now();
  gqzoo::GraphSnapshot snapshot(*graph);
  Clock::time_point t1 = Clock::now();
  gqzoo::SnapshotStats stats(snapshot);
  Clock::time_point t2 = Clock::now();
  tracer->Record("graph.snapshot_build", 0, 0, t0, t1);
  tracer->Record("planner.stats_build", 0, 0, t1, t2);
}

// --- pinned paper answers ------------------------------------------------------------

/// Figure 3 (Section 6.3): the shortest Mike -> Rebecca transfer walk with
/// one amount below 4.5M is path(a3, t6, a4, t9, a6, t10, a5). Figure 5:
/// the diamond chain with n segments has 2^n s-t paths, which the PMR
/// counts without enumerating them.
void CheckPaperFigures() {
  QueryEngine fig3(gqzoo::Figure3Graph(), EngineOptions());
  gqzoo::QueryRequest q;
  q.language = QueryLanguage::kPaths;
  q.text =
      "( ()[Transfer] )* ()[Transfer][amount < 4500000] ( ()[Transfer] )* ()";
  q.paths.from = "a3";
  q.paths.to = "a5";
  q.paths.mode = gqzoo::PathMode::kShortest;
  Result<QueryResponse> r = fig3.Execute(q);
  const std::string want = "  path(a3, t6, a4, t9, a6, t10, a5)\n1 paths\n";
  const std::string got = r.ok() ? r.value().text : r.error().message();
  if (got != want) GateFailed("Figure 3 detour answer: " + got);

  PropertyGraph chain;
  std::vector<gqzoo::NodeId> nodes;
  const size_t segments = 20;
  for (size_t i = 0; i <= segments; ++i) {
    nodes.push_back(chain.AddNode("v" + std::to_string(i), "Node"));
  }
  for (size_t i = 0; i < segments; ++i) {
    chain.AddEdge(nodes[i], nodes[i + 1], "a");
    chain.AddEdge(nodes[i], nodes[i + 1], "a");
  }
  gqzoo::GraphSnapshot snapshot(chain);
  Result<gqzoo::PlanPtr> plan =
      gqzoo::CompilePlan(QueryLanguage::kPaths, "a+", chain, 0);
  if (!plan.ok()) GateFailed("Figure 5 compile failed");
  const auto& paths = std::get<gqzoo::PathsPlan>(plan.value()->compiled);
  gqzoo::Pmr pmr =
      gqzoo::BuildPmrBetween(snapshot, *paths.nfa, nodes.front(), nodes.back());
  std::optional<gqzoo::BigUint> count = gqzoo::CountPmrWalks(pmr);
  if (!count.has_value() || count->ToString() != std::to_string(1u << segments)) {
    GateFailed("Figure 5 path count is not 2^20");
  }
}

// --- open loop over the wire --------------------------------------------------------

struct Observation {
  uint64_t rows = 0;
  uint64_t hash = 0;
};

/// A read whose answer does not depend on the writes, with the answer the
/// wire returned for it.
struct SeenRead {
  Request request;
  Observation obs;
};

struct PhaseResult {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> lag_ms;
  std::map<std::string, std::vector<double>> by_tag;
  size_t attempted = 0;
  size_t failed = 0;
  double seconds = 0;
  double drain_ms = 0;  // last completion after the phase's last send slot
  bool backlog = false;
};

/// The wire_mixed harness state: engine, server, one client per connection.
struct WireRig {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<gqzoo::server::GraphServer> server;
  std::vector<gqzoo::server::Client> clients;
  std::string dir;
  size_t base_edges = 0;

  void Stop() {
    clients.clear();
    if (server) server->Shutdown();
    server.reset();
    engine.reset();
  }
};

QueryEngine::Options WireEngineOptions(const std::string& dir) {
  QueryEngine::Options options = EngineOptions();
  options.durability.dir = dir;
  options.durability.fsync = true;
  options.durability.group_commit_window_ms = 10;
  return options;
}

constexpr const char* kFlushPolicy =
    "fsync on, group commit 10 ms; default compaction policy (background)";

WireRig SetUpWire(WireMixed* gen, const std::string& dir) {
  WireRig rig;
  rig.dir = dir;
  fs::remove_all(dir);
  PropertyGraph graph = gen->MakeGraph();
  rig.base_edges = graph.NumEdges();
  auto engine = QueryEngine::RecoverFrom(std::move(graph), WireEngineOptions(dir));
  if (!engine.ok()) GateFailed("RecoverFrom: " + engine.error().message());
  rig.engine = std::move(engine).value();
  rig.server = std::make_unique<gqzoo::server::GraphServer>(
      rig.engine.get(), gqzoo::server::ServerOptions{});
  if (Result<bool> started = rig.server->Start(); !started.ok()) {
    GateFailed("server start: " + started.error().message());
  }
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = gqzoo::server::Client::Connect("127.0.0.1", rig.server->port());
    if (!client.ok()) GateFailed("connect: " + client.error().message());
    if (!client.value().Hello("perf").ok()) GateFailed("hello failed");
    rig.clients.push_back(std::move(client).value());
  }
  return rig;
}

/// Sends `r` on `client`; fills `obs` with the streamed row count and byte
/// hash. Returns false on any failure.
bool SendWire(gqzoo::server::Client& client, const Request& r, Observation* obs,
              std::string* streamed = nullptr) {
  if (r.write) {
    Result<gqzoo::server::DoneStatus> done = client.Mutate(r.ops);
    return done.ok() && done.value().ok;
  }
  uint64_t h = HashText("");
  Result<gqzoo::server::DoneStatus> done =
      client.Query(r.text, ToWire(r), [&](std::string_view chunk) {
        h = HashText(chunk, h);
        if (streamed != nullptr) streamed->append(chunk);
        return true;
      });
  if (!done.ok() || !done.value().ok) return false;
  obs->rows = done.value().num_rows;
  obs->hash = h;
  return true;
}

/// Open loop: each connection is a user who sends on a fixed schedule,
/// staggered across connections, at rate * 9/10 / C, and after every
/// ninth request sends one follow-up as soon as the answer arrives, for
/// `rate` in total. Latency runs from each request's scheduled time (for a
/// follow-up, the arrival of the answer before it). Back-to-back follow-ups
/// are the requests the server's Nagle/delayed-ACK stall hits; a fixed
/// share of them keeps the stall in every run's tail, and the fixed
/// schedule keeps stalls from queueing behind one another. Stable reads'
/// answers are collected for the post-run check.
PhaseResult OpenLoop(WireRig& rig, WireMixed* gen, double rate, double seconds,
                     Tracer* tracer, std::map<std::string, SeenRead>* seen,
                     std::string* mismatch) {
  const size_t conns = rig.clients.size();
  const double grid_rate = rate * 0.9 / static_cast<double>(conns);
  const size_t per_conn = static_cast<size_t>(grid_rate * seconds);
  std::vector<PhaseResult> per(conns);
  std::vector<std::map<std::string, SeenRead>> per_seen(conns);
  std::vector<std::string> per_mismatch(conns);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> last_done(conns, start);
  std::vector<Clock::time_point> last_due(conns, start);
  std::vector<std::thread> workers;
  for (size_t c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      PhaseResult& out = per[c];
      Clock::time_point due = start;
      for (size_t i = 0; i < per_conn + per_conn / 9; ++i) {
        const bool follow_up = i % 10 == 9;
        if (!follow_up) {
          due = start + Seconds((static_cast<double>(i - i / 10) +
                                 (c + 0.5) / conns) / grid_rate);
          std::this_thread::sleep_until(due);
        }
        const Clock::time_point sent = Clock::now();
        out.lag_ms.push_back(Ms(sent - due));
        Request r = gen->Next(c);
        Observation obs;
        const bool ok = SendWire(rig.clients[c], r, &obs);
        const Clock::time_point done = Clock::now();
        last_done[c] = done;
        last_due[c] = std::max(last_due[c], due);
        ++out.attempted;
        out.by_tag[r.tag].push_back(Ms(done - due));
        if (!ok) ++out.failed;
        if (r.write) {
          gen->Acked(r, ok);
          if (ok) out.write_ms.push_back(Ms(done - due));
        } else if (ok) {
          out.read_ms.push_back(Ms(done - due));
          if (r.stable) {
            auto [it, inserted] = per_seen[c].emplace(ReadKey(r), SeenRead{r, obs});
            if (!inserted && (it->second.obs.rows != obs.rows ||
                              it->second.obs.hash != obs.hash)) {
              per_mismatch[c] = "answer changed between runs of '" + r.text + "'";
            }
          }
        }
        if (tracer->enabled()) {
          tracer->Record(r.write ? "server.write_roundtrip" : "server.roundtrip",
                         0, 0, sent, done,
                         {{"lag_ms", Ms(sent - due)},
                          {"rows", static_cast<double>(obs.rows)},
                          {"follow_up", follow_up ? 1.0 : 0.0}});
        }
        due = done;  // a follow-up is due when this answer arrives
      }
    });
  }
  for (std::thread& w : workers) w.join();
  PhaseResult all;
  Clock::time_point end = start;
  for (size_t c = 0; c < conns; ++c) {
    PhaseResult& p = per[c];
    all.read_ms.insert(all.read_ms.end(), p.read_ms.begin(), p.read_ms.end());
    all.write_ms.insert(all.write_ms.end(), p.write_ms.begin(), p.write_ms.end());
    all.lag_ms.insert(all.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
    for (const auto& [tag, v] : p.by_tag) {
      all.by_tag[tag].insert(all.by_tag[tag].end(), v.begin(), v.end());
    }
    all.attempted += p.attempted;
    all.failed += p.failed;
    end = std::max(end, last_done[c]);
    if (!per_mismatch[c].empty()) *mismatch = per_mismatch[c];
    for (const auto& [key, read] : per_seen[c]) {
      auto [it, inserted] = seen->emplace(key, read);
      if (!inserted && (it->second.obs.rows != read.obs.rows ||
                        it->second.obs.hash != read.obs.hash)) {
        *mismatch = "answers differ across connections for " + key;
      }
    }
  }
  const Clock::time_point last_slot =
      *std::max_element(last_due.begin(), last_due.end());
  all.seconds = std::chrono::duration<double>(end - start).count();
  all.drain_ms = Ms(end - last_slot);
  // A backlog shows as requests still completing long after the schedule
  // ended: more than a second after the last arrival.
  all.backlog = all.drain_ms > 1000.0;
  return all;
}

/// Checks that every template streams over the wire byte-identically to the
/// in-process text.
void CheckWireIdentity(WireRig& rig, WireMixed* gen, bool inject) {
  for (size_t t = 0; t < WireMixed::NumTemplates(); ++t) {
    Request r = gen->TemplateRead(t, 0);
    std::string streamed;
    Observation obs;
    if (!SendWire(rig.clients[0], r, &obs, &streamed)) {
      GateFailed("wire query failed: " + r.text);
    }
    Result<QueryResponse> local = rig.engine->Execute(ToQuery(r));
    if (!local.ok()) GateFailed("in-process query failed: " + r.text);
    std::string text = local.value().text;
    if (inject && t == 0) text += " ";
    if (streamed != text || obs.rows != local.value().num_rows) {
      GateFailed("streamed bytes differ from in-process text for '" + r.text + "'");
    }
    if (t + 1 == WireMixed::NumTemplates() && streamed.size() < 3 * 4096) {
      GateFailed("streaming template does not span several ROWS chunks");
    }
  }
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

/// Confines this process to the first CPU it may run on and returns that
/// CPU, or -1 if it cannot. Threads started afterwards inherit the mask.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int RunWire(const Args& args, Record* rec, Tracer* tracer) {
  // The open loop idles between requests, so each request's hand-offs
  // (client, connection thread, engine worker) would otherwise wake
  // vCPUs that a shared host may have descheduled; whether they are makes
  // the median swing between runs. Every thread of the process shares one
  // CPU, which this light load (well under a tenth of it) leaves idle most
  // of the time.
  const int pinned_cpu = PinToOneCpu();
  if (pinned_cpu < 0) {
    std::fprintf(stderr, "cannot pin the process to one CPU\n");
    return 2;
  }
  WireMixedConfig config;
  config.ladder = {20, 40, 80, 160};
  if (args.smoke) {
    config.nodes = 1000;
    config.edges = 4000;
    config.ladder = {20, 40};
    config.ladder_rung_seconds = 0.5;
  }
  WireMixed gen(args.seed, config);

  // Set-up, repeated: run.py reports the median. Each
  // RecoverFrom takes over a second, so a few repetitions suffice.
  const size_t reps = args.smoke ? 1 : 7;
  std::vector<double> setup_s;
  WireRig rig;
  for (size_t i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    rig = SetUpWire(&gen, args.work_dir + "/durable");
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (i + 1 < reps) rig.Stop();
  }

  CheckPaperFigures();
  CheckWireIdentity(rig, &gen, args.inject_mismatch);
  rig.engine->ClearPlanCache();

  std::map<std::string, SeenRead> seen;
  std::string mismatch;
  Tracer off(false);
  PhaseResult main = OpenLoop(rig, &gen, kRateQps, args.seconds, &off,
                              &seen, &mismatch);
  // Rate ladder: run.py derives slo_qps from the rungs' read latencies.
  std::string ladder = "[";
  for (double rate : config.ladder) {
    PhaseResult rung = OpenLoop(rig, &gen, rate, config.ladder_rung_seconds,
                                &off, &seen, &mismatch);
    char head[128];
    std::snprintf(head, sizeof(head),
                  "{\"rate\": %.17g, \"drain_ms\": %.17g, \"backlog\": %d, "
                  "\"failed\": %zu, \"read_ms\": ",
                  rate, rung.drain_ms, rung.backlog ? 1 : 0, rung.failed);
    if (ladder.size() > 1) ladder += ", ";
    ladder += head + JsonList(rung.read_ms) + "}";
  }
  ladder += "]";

  PhaseResult traced;
  if (tracer->enabled()) {
    TimeSnapshotBuild(*rig.engine, tracer);
    const auto before = ReadCounters(*rig.engine);
    traced = OpenLoop(rig, &gen, kRateQps, args.seconds, tracer, &seen,
                      &mismatch);
    RecordDeltas(tracer, before, *rig.engine);

    // Serial pairing pass on connection 0: each read's round trip, then the
    // same request in process, its compile and its evaluator; each write's
    // round trip, then the next write applied in process. The span pairs
    // give the server's and the engine's self time.
    PairingContext pairing;
    const Clock::time_point stop =
        Clock::now() + Seconds(args.seconds / 2);
    for (uint64_t req = 1; Clock::now() < stop; ++req) {
      // Alternate writes with the mix, so both sides get enough samples.
      Request r = req % 2 == 0 ? gen.NextWrite(0) : gen.Next(0);
      Observation obs;
      Clock::time_point t0 = Clock::now();
      const bool ok = SendWire(rig.clients[0], r, &obs);
      Clock::time_point t1 = Clock::now();
      if (!ok) GateFailed("pairing request failed: " + r.text);
      if (r.write) {
        gen.Acked(r, true);
        const uint64_t parent =
            tracer->Record("server.write_roundtrip_paired", req, 0, t0, t1);
        Request w = gen.NextWrite(0);
        gqzoo::MutationBatch batch;
        for (const std::string& line : w.ops) {
          auto op = gqzoo::ParseMutationOp(line);
          if (!op.ok()) GateFailed("bad op " + line);
          batch.ops.push_back(op.value());
        }
        const uint64_t wal0 = DirBytes(rig.dir, "wal");
        t0 = Clock::now();
        auto applied = rig.engine->ApplyMutation(batch);
        t1 = Clock::now();
        gen.Acked(w, applied.ok());
        if (!applied.ok()) GateFailed("ApplyMutation: " + applied.error().message());
        const uint64_t wal1 = DirBytes(rig.dir, "wal");
        tracer->Record("mutation.apply", req, parent, t0, t1,
                       {{"wal_bytes", static_cast<double>(wal1 > wal0 ? wal1 - wal0 : 0)},
                        {"op_bytes", static_cast<double>(w.ops[0].size() + w.ops[1].size())}});
        continue;
      }
      const uint64_t parent = tracer->Record(
          "server.roundtrip_paired", req, 0, t0, t1,
          {{"rows", static_cast<double>(obs.rows)}});
      t0 = Clock::now();
      Result<QueryResponse> local = rig.engine->Execute(ToQuery(r));
      t1 = Clock::now();
      if (!local.ok()) GateFailed("in-process pairing failed: " + r.text);
      const uint64_t exec = tracer->Record("engine.execute", req, parent, t0, t1,
                                           {{"rows", static_cast<double>(local.value().num_rows)}});
      PairedLayers(r, *rig.engine, &pairing, tracer, req, exec);
    }
    // Compaction, timed on its public entry point, with a checkpoint size
    // for the write-amplification estimate.
    const Clock::time_point t0 = Clock::now();
    const bool compacted = rig.engine->CompactNow();
    const Clock::time_point t1 = Clock::now();
    if (compacted) tracer->Record("mutation.compact", 0, 0, t0, t1);
    tracer->Counter("checkpoint_bytes", static_cast<double>(DirBytes(rig.dir, "checkpoint")));
  }

  const double peak_rss = PeakRssMb();
  rig.Stop();

  // Durability: every acked write must survive a restart from the
  // directory the run wrote.
  const Clock::time_point r0 = Clock::now();
  auto recovered =
      QueryEngine::RecoverFrom(PropertyGraph(), WireEngineOptions(rig.dir));
  const Clock::time_point r1 = Clock::now();
  if (!recovered.ok()) GateFailed("recovery: " + recovered.error().message());
  tracer->Record("storage.recover", 0, 0, r0, r1);
  QueryEngine& after = *recovered.value();
  std::shared_ptr<const PropertyGraph> g = after.graph_snapshot();
  if (g->NumEdges() != rig.base_edges) {
    GateFailed("edge count changed across the run: " + std::to_string(g->NumEdges()));
  }
  for (const auto& [name, ends] : gen.ExpectedWEdges()) {
    std::optional<gqzoo::EdgeId> e = g->skeleton().FindEdge(name);
    if (!e || g->skeleton().NodeName(g->Src(*e)) != ends.first ||
        g->skeleton().NodeName(g->Tgt(*e)) != ends.second) {
      GateFailed("acked write lost after recovery: " + name);
    }
  }
  if (gen.failed_writes() > 0) GateFailed("writes failed during the run");
  if (!mismatch.empty()) GateFailed(mismatch);
  // Every stable read's streamed answer equals an in-process execution on
  // the recovered engine.
  for (const auto& [key, read] : seen) {
    Result<QueryResponse> local = after.Execute(ToQuery(read.request));
    if (!local.ok() || local.value().num_rows != read.obs.rows ||
        HashText(local.value().text) != read.obs.hash) {
      GateFailed("wire answer differs from in-process answer for " + key);
    }
  }
  fs::remove_all(rig.dir);

  rec->Str("flush_policy", kFlushPolicy);
  char loop[192];
  std::snprintf(loop, sizeof(loop),
                "open, %zu connections, %.0f req/s (every tenth a back-to-back "
                "follow-up); process pinned to CPU %d",
                kConnections, kRateQps, pinned_cpu);
  rec->Str("loop", loop);
  rec->Num("graph_nodes", static_cast<double>(config.nodes));
  rec->Num("graph_edges", static_cast<double>(config.edges));
  rec->Raw("setup_s", JsonList(setup_s));
  rec->Num("throughput_qps", static_cast<double>(main.attempted - main.failed) / main.seconds);
  rec->Raw("read_ms", JsonList(main.read_ms));
  rec->Raw("write_ms", JsonList(main.write_ms));
  rec->Raw("lag_ms", JsonList(main.lag_ms));
  rec->Raw("by_tag", JsonByTag(main.by_tag));
  rec->Raw("ladder", ladder);
  rec->Num("attempted", static_cast<double>(main.attempted));
  rec->Num("failed", static_cast<double>(main.failed));
  rec->Num("peak_rss_mb", peak_rss);
  rec->Num("backlog", main.backlog ? 1 : 0);
  rec->Num("distinct_reads_checked", static_cast<double>(seen.size()));
  if (tracer->enabled()) {
    rec->Raw("traced_read_ms", JsonList(traced.read_ms));
    rec->Num("traced_throughput_qps",
             static_cast<double>(traced.attempted - traced.failed) / traced.seconds);
  }
  return 0;
}

// --- closed loop in process ---------------------------------------------------------------

struct ClosedPhase {
  std::vector<double> read_ms;
  std::map<std::string, std::vector<double>> by_tag;
  size_t attempted = 0;
  size_t failed = 0;
  double seconds = 0;
};

/// One generator thread keeps `outstanding` requests submitted; each
/// answer is compared with the reference taken in the gate.
ClosedPhase ClosedLoop(QueryEngine& engine, const ClosedWorkload& w,
                       size_t* cursor, double seconds,
                       const std::vector<Observation>& refs, Tracer* tracer) {
  struct InFlight {
    std::future<Result<QueryResponse>> future;
    Clock::time_point submitted;
    size_t index;
    uint64_t req;
  };
  ClosedPhase out;
  std::deque<InFlight> flight;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Seconds(seconds);
  uint64_t req = 0;
  while (true) {
    while (flight.size() < kOutstanding && Clock::now() < end) {
      const size_t index = w.IndexAt(*cursor);
      const Request& r = w.At((*cursor)++);
      InFlight f;
      f.submitted = Clock::now();
      f.future = engine.Submit(ToQuery(r));
      f.index = index;
      f.req = ++req;
      flight.push_back(std::move(f));
      ++out.attempted;
    }
    if (flight.empty()) break;
    bool progressed = false;
    for (auto it = flight.begin(); it != flight.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      const Clock::time_point done = Clock::now();
      Result<QueryResponse> res = it->future.get();
      if (!res.ok()) {
        ++out.failed;
      } else {
        const Observation& want = refs[it->index];
        if (res.value().num_rows != want.rows || HashText(res.value().text) != want.hash) {
          GateFailed("answer differs from the reference for '" +
                     w.reads()[it->index].text + "'");
        }
        out.read_ms.push_back(Ms(done - it->submitted));
        out.by_tag[w.reads()[it->index].tag].push_back(Ms(done - it->submitted));
        if (tracer->enabled()) {
          tracer->Record("engine.submit", it->req, 0, it->submitted, done,
                         {{"exec_us", static_cast<double>(res.value().latency.count())},
                          {"rows", static_cast<double>(res.value().num_rows)}});
        }
      }
      it = flight.erase(it);
      progressed = true;
    }
    if (!progressed) flight.front().future.wait_for(std::chrono::microseconds(100));
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

/// Extracts the (x, z) node-name pairs of a two-column answer rendered by
/// the rpq, crpq or coregql renderer.
std::vector<std::pair<std::string, std::string>> PairsOf(QueryLanguage language,
                                                         const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  bool header = language == QueryLanguage::kCoreGql;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (header) {
      header = false;
      continue;
    }
    std::string a, b;
    if (language == QueryLanguage::kRpq) {
      const size_t open = line.find('('), comma = line.find(", "), close = line.find(')');
      if (open == std::string::npos || comma == std::string::npos) continue;
      a = line.substr(open + 1, comma - open - 1);
      b = line.substr(comma + 2, close - comma - 2);
    } else if (language == QueryLanguage::kCrpq) {
      const size_t x = line.find("x -> "), z = line.find(", z -> ");
      if (x == std::string::npos || z == std::string::npos) continue;
      a = line.substr(x + 5, z - x - 5);
      b = line.substr(z + 7);
    } else {
      const size_t bar = line.find(" | ");
      if (bar == std::string::npos) continue;
      a = line.substr(0, bar);
      b = line.substr(bar + 3);
    }
    out.push_back({a, b});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The same two-hop pattern as an RPQ, a CRPQ and a CoreGQL query must
/// return the same endpoint pairs.
void CheckCrossLanguage(QueryEngine& engine, bool inject) {
  std::vector<std::vector<std::pair<std::string, std::string>>> answers;
  for (auto [language, text] :
       {std::pair{QueryLanguage::kRpq, "a b"},
        std::pair{QueryLanguage::kCrpq, "q(x, z) :- a(x, y), b(y, z)"},
        std::pair{QueryLanguage::kCoreGql,
                  "MATCH (x)-[:a]->(y)-[:b]->(z) RETURN x, z"}}) {
    gqzoo::QueryRequest q;
    q.language = language;
    q.text = text;
    q.max_display_rows = SIZE_MAX;
    Result<QueryResponse> r = engine.Execute(q);
    if (!r.ok()) GateFailed(std::string("cross-language query failed: ") + text);
    answers.push_back(PairsOf(language, r.value().text));
    if (answers.back().size() != r.value().num_rows) {
      GateFailed(std::string("could not read the answer of ") + text);
    }
  }
  if (inject) answers[1].pop_back();
  if (answers[0] != answers[1] || answers[0] != answers[2]) {
    GateFailed("a b as RPQ, CRPQ and CoreGQL give different pairs");
  }
  engine.ClearPlanCache();
}

int RunClosed(const Args& args, Record* rec, Tracer* tracer) {
  ClosedConfig config;
  if (args.workload == "join_heavy") {
    config.nodes = args.smoke ? 2000 : 5000;
    config.edges = args.smoke ? 20000 : 50000;
  } else {
    config.nodes = args.smoke ? 2000 : 5000;
    config.edges = args.smoke ? 6000 : 15000;
    config.diamond_segments = args.smoke ? 8 : 13;
    config.ring_accounts = args.smoke ? 64 : 256;
  }
  ClosedWorkload w(args.workload, args.seed, config);

  // Set-up takes tens of ms and the host's speed wanders over seconds, so
  // it is repeated for a while before the timed phase and again after it;
  // run.py reports the median of all repetitions.
  std::vector<double> setup_s;
  auto set_up_round = [&](std::unique_ptr<QueryEngine>* engine) {
    const Clock::time_point until = Clock::now() + Seconds(args.smoke ? 0 : 1.5);
    do {
      engine->reset();
      const Clock::time_point t0 = Clock::now();
      *engine = std::make_unique<QueryEngine>(w.MakeGraph(), EngineOptions());
      setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    } while (Clock::now() < until);
  };
  std::unique_ptr<QueryEngine> engine;
  set_up_round(&engine);

  // Gate: paper figures, cross-language agreement, then one reference
  // answer per read (which also warms the plan cache, as the workload
  // intends) checked against what is known by construction.
  CheckPaperFigures();
  if (args.workload == "join_heavy") CheckCrossLanguage(*engine, args.inject_mismatch);
  std::vector<Observation> refs;
  for (size_t i = 0; i < w.reads().size(); ++i) {
    const Request& r = w.reads()[i];
    const Clock::time_point t0 = Clock::now();
    Result<QueryResponse> res = engine->Execute(ToQuery(r));
    if (!res.ok()) GateFailed("'" + r.text + "': " + res.error().message());
    std::printf("reference %-18s %9.3f ms %8zu rows  %s\n", r.tag.c_str(),
                Ms(Clock::now() - t0), res.value().num_rows, r.text.c_str());
    refs.push_back({res.value().num_rows, HashText(res.value().text)});
    for (const auto& [index, rows] : w.pinned_rows()) {
      size_t got = res.value().num_rows;
      if (args.inject_mismatch && args.workload == "path_heavy") ++got;
      if (index == i && got != rows) {
        GateFailed("'" + r.text + "' returned " + std::to_string(got) +
                   " paths, expected " + std::to_string(rows));
      }
    }
    for (const auto& [index, length] : w.pinned_lengths()) {
      if (index != i) continue;
      // Count the ring edges (tr<i>) of the single rendered walk.
      size_t edges = 0;
      for (size_t p = res.value().text.find(", tr"); p != std::string::npos;
           p = res.value().text.find(", tr", p + 1)) {
        ++edges;
      }
      if (edges != length) {
        GateFailed("ring detour has length " + std::to_string(edges) +
                   ", expected " + std::to_string(length));
      }
    }
  }

  size_t cursor = 0;
  Tracer off(false);
  ClosedPhase main = ClosedLoop(*engine, w, &cursor, args.seconds, refs, &off);
  const double peak_rss = PeakRssMb();
  {
    std::unique_ptr<QueryEngine> spare;
    set_up_round(&spare);
  }
  ClosedPhase traced;
  if (tracer->enabled()) {
    TimeSnapshotBuild(*engine, tracer);
    const auto before = ReadCounters(*engine);
    traced = ClosedLoop(*engine, w, &cursor, args.seconds, refs, tracer);
    RecordDeltas(tracer, before, *engine);
    // Serial pairing pass: templates in rotation, so every layer the
    // workload reaches gets samples however short the pass.
    std::vector<std::vector<size_t>> by_tag;
    std::map<std::string, size_t> tag_slot;
    for (size_t i = 0; i < w.reads().size(); ++i) {
      auto [it, added] = tag_slot.emplace(w.reads()[i].tag, by_tag.size());
      if (added) by_tag.emplace_back();
      by_tag[it->second].push_back(i);
    }
    PairingContext pairing;
    const Clock::time_point stop =
        Clock::now() + Seconds(args.seconds / 2);
    for (uint64_t req = 1; Clock::now() < stop; ++req) {
      const std::vector<size_t>& group = by_tag[(req - 1) % by_tag.size()];
      const Request& r = w.reads()[group[(req - 1) / by_tag.size() % group.size()]];
      const Clock::time_point t0 = Clock::now();
      Result<QueryResponse> res = engine->Execute(ToQuery(r));
      const Clock::time_point t1 = Clock::now();
      if (!res.ok()) GateFailed("pairing failed: " + r.text);
      const uint64_t exec = tracer->Record(
          "engine.execute", req, 0, t0, t1,
          {{"rows", static_cast<double>(res.value().num_rows)}});
      PairedLayers(r, *engine, &pairing, tracer, req, exec);
    }
  }

  rec->Str("flush_policy", "none (in-memory engine, read-only)");
  rec->Str("loop", "closed, 1 generator thread, " +
                       std::to_string(kOutstanding) + " outstanding");
  rec->Num("graph_nodes", static_cast<double>(engine->graph_snapshot()->NumNodes()));
  rec->Num("graph_edges", static_cast<double>(engine->graph_snapshot()->NumEdges()));
  rec->Num("distinct_reads", static_cast<double>(w.reads().size()));
  rec->Raw("setup_s", JsonList(setup_s));
  rec->Num("throughput_qps", static_cast<double>(main.attempted - main.failed) / main.seconds);
  rec->Raw("read_ms", JsonList(main.read_ms));
  rec->Raw("by_tag", JsonByTag(main.by_tag));
  rec->Num("attempted", static_cast<double>(main.attempted));
  rec->Num("failed", static_cast<double>(main.failed));
  rec->Num("peak_rss_mb", peak_rss);
  if (tracer->enabled()) {
    rec->Raw("traced_read_ms", JsonList(traced.read_ms));
    rec->Num("traced_throughput_qps",
             static_cast<double>(traced.attempted - traced.failed) / traced.seconds);
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (flag == "--workload") args->workload = value();
    else if (flag == "--seed") args->seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value().c_str());
    else if (flag == "--trace") args->trace = value() == "1";
    else if (flag == "--work-dir") args->work_dir = value();
    else if (flag == "--out") args->out = value();
    else if (flag == "--smoke") args->smoke = true;
    else if (flag == "--inject-mismatch") args->inject_mismatch = true;
    else return false;
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         !args->out.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gqzoo_perf --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --out FILE [--smoke] "
                 "[--inject-mismatch]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::string(GQZOO_PERF_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build\n", GQZOO_PERF_BUILD_TYPE);
    return 2;
  }
  fs::create_directories(args.work_dir);
  Tracer tracer(args.trace);
  Record rec;
  rec.Str("workload", args.workload);
  rec.Num("seed", static_cast<double>(args.seed));
  rec.Str("build_type", GQZOO_PERF_BUILD_TYPE);
  rec.Num("engine_threads", static_cast<double>(kThreads));
  int rc;
  if (args.workload == "wire_mixed") {
    rc = RunWire(args, &rec, &tracer);
  } else if (args.workload == "join_heavy" || args.workload == "path_heavy") {
    rc = RunClosed(args, &rec, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  if (tracer.enabled()) {
    const std::string spans = args.work_dir + "/spans.jsonl";
    if (!tracer.WriteJsonLines(spans)) return 4;
    rec.Str("spans_file", spans);
  }
  return rec.Write(args.out) ? 0 : 4;
}
