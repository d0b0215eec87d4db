#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace perf {

using gqzoo::NodeId;
using gqzoo::ObjectRef;
using gqzoo::PathMode;
using gqzoo::PropertyGraph;
using gqzoo::QueryLanguage;
using gqzoo::Value;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b) {
  Rng rng(seed ^ (a * 0x2545f4914f6cdd1dULL) ^ (b * 0x9e3779b97f4a7c15ULL));
  rng.Next();
  return rng.Next();
}

gqzoo::QueryRequest ToQuery(const Request& r) {
  gqzoo::QueryRequest q;
  q.language = r.language;
  q.text = r.text;
  q.paths = r.paths;
  q.max_display_rows = r.max_display_rows;
  q.max_results = r.max_results;
  q.max_path_length = r.max_path_length;
  q.optimize = r.optimize;
  q.timeout = std::chrono::milliseconds(kTimeoutMs);
  return q;
}

gqzoo::server::ClientQueryOptions ToWire(const Request& r) {
  gqzoo::server::ClientQueryOptions o;
  o.language = gqzoo::QueryLanguageName(r.language);
  o.timeout_ms = kTimeoutMs;
  o.max_display_rows = static_cast<uint32_t>(r.max_display_rows);
  o.paths_from = r.paths.from;
  o.paths_to = r.paths.to;
  switch (r.paths.mode) {
    case PathMode::kAll: o.paths_mode = 0; break;
    case PathMode::kShortest: o.paths_mode = 1; break;
    case PathMode::kSimple: o.paths_mode = 2; break;
    case PathMode::kTrail: o.paths_mode = 3; break;
  }
  o.k_shortest = static_cast<uint32_t>(r.paths.k_shortest);
  o.optimize = r.optimize;
  return o;
}

std::string ReadKey(const Request& r) {
  std::string key = gqzoo::QueryLanguageName(r.language);
  key += '\t';
  key += r.text;
  key += r.optimize ? "\topt" : "";
  if (r.language == QueryLanguage::kPaths) {
    key += '\t' + r.paths.from + '\t' + r.paths.to + '\t' +
           std::to_string(static_cast<int>(r.paths.mode)) + '\t' +
           std::to_string(r.paths.k_shortest);
  }
  return key;
}

std::vector<RandomEdge> RandomComponentEdges(size_t nodes, size_t edges,
                                             uint64_t seed, bool regular) {
  Rng rng(seed);
  std::vector<RandomEdge> out(edges);
  for (size_t i = 0; i < edges; ++i) {
    RandomEdge& e = out[i];
    e.src = static_cast<uint32_t>(regular ? i % nodes : rng.Below(nodes));
    e.tgt = static_cast<uint32_t>(rng.Below(nodes));
    e.label = static_cast<uint32_t>(regular ? i / nodes % 4 : rng.Below(4));
  }
  return out;
}

void AddRandomComponent(PropertyGraph* g, size_t nodes, size_t edges,
                        uint64_t seed, bool regular) {
  static const char* const kLabels[] = {"a", "b", "c", "d"};
  std::vector<NodeId> ids;
  ids.reserve(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    NodeId n = g->AddNode("n" + std::to_string(i), "N");
    g->SetProperty(ObjectRef::Node(n), "id", Value(static_cast<int64_t>(i)));
    ids.push_back(n);
  }
  Rng values(StreamSeed(seed, 7));
  for (const RandomEdge& e :
       RandomComponentEdges(nodes, edges, seed, regular)) {
    gqzoo::EdgeId id = g->AddEdge(ids[e.src], ids[e.tgt], kLabels[e.label]);
    g->SetProperty(ObjectRef::Edge(id), "k",
                   Value(static_cast<int64_t>(values.Below(100))));
  }
}

// --- wire_mixed ---------------------------------------------------------------

namespace {

// Read templates of wire_mixed, in TemplateRead order. The last one is the
// streaming read.
enum WireKind : size_t {
  kCrpqPoint = 0,
  kGqlPoint,
  kDlPoint,
  kShortestPoint,
  kKShortestPoint,
  kSparseLabel,
  kStream,
  kNumWireKinds,
};

// One deck of twenty requests per connection: two writes, two streaming
// reads, four reads of the sparse label, and twelve point reads, eight of
// them CRPQ lookups. The reads cheaper than a CRPQ lookup make up about a
// third of all reads, so the median read sits in the middle of the CRPQ
// lookups' cluster rather than on its slower flank. Each connection deals
// its decks in a seeded order, so every run has exactly this mix.
constexpr size_t kWrite = kNumWireKinds;
constexpr size_t kDeck[] = {
    kWrite,       kWrite,       kStream,    kStream,        kSparseLabel,
    kSparseLabel, kSparseLabel, kSparseLabel, kCrpqPoint,   kCrpqPoint,
    kCrpqPoint,   kCrpqPoint,   kCrpqPoint, kCrpqPoint,     kCrpqPoint,
    kCrpqPoint,   kDlPoint,     kGqlPoint,  kShortestPoint, kKShortestPoint};

}  // namespace

WireMixed::WireMixed(uint64_t seed, WireMixedConfig config)
    : config_(std::move(config)), seed_(seed) {
  const size_t n = config_.nodes;
  zipf_cdf_.resize(n);
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    zipf_cdf_[r] = sum;
  }
  for (double& c : zipf_cdf_) c /= sum;
  rank_to_node_.resize(n);
  for (size_t i = 0; i < n; ++i) rank_to_node_[i] = i;
  Rng shuffle(StreamSeed(seed, 1));
  for (size_t i = n; i > 1; --i) {
    std::swap(rank_to_node_[i - 1], rank_to_node_[shuffle.Below(i)]);
  }
  for (size_t c = 0; c < kConnections; ++c) {
    streams_.emplace_back(StreamSeed(seed, 2, c));
    decks_.emplace_back();
    Chain chain;
    chain.next = 1;
    Rng ends(StreamSeed(seed, 3, c));
    chain.live_ends = {Node(ends.Below(n)), Node(ends.Below(n))};
    chains_.push_back(chain);
  }
}

size_t WireMixed::NumTemplates() { return kNumWireKinds; }

size_t WireMixed::ZipfNode(Rng* rng) const {
  const double u = rng->Unit();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  return rank_to_node_[std::min(rank, rank_to_node_.size() - 1)];
}

PropertyGraph WireMixed::MakeGraph() const {
  PropertyGraph g;
  AddRandomComponent(&g, config_.nodes, config_.edges, StreamSeed(seed_, 0),
                     /*regular=*/true);
  for (size_t c = 0; c < chains_.size(); ++c) {
    const auto& [src, tgt] = chains_[c].live_ends;
    g.AddEdge(*g.FindNode(src), *g.FindNode(tgt), "w",
              "w" + std::to_string(c) + "_0");
  }
  return g;
}

Request WireMixed::Read(size_t kind, Rng* rng, size_t conn) const {
  Request r;
  r.conn = conn;
  const std::string k = std::to_string(ZipfNode(rng));
  switch (kind) {
    case kCrpqPoint:
      r.tag = "crpq_point";
      r.language = QueryLanguage::kCrpq;
      r.text = "q(y, z) :- a(@n" + k + ", y), b(y, z)";
      break;
    case kGqlPoint:
      r.tag = "coregql_point";
      r.language = QueryLanguage::kCoreGql;
      r.text = "MATCH (x)-[:c]->(y)-[:a]->(z) WHERE x.id = " + k +
               " RETURN y, z";
      r.optimize = true;  // push the constant into the pattern
      break;
    case kDlPoint:
      r.tag = "dlcrpq_point";
      r.language = QueryLanguage::kDlCrpq;
      // The filter keeps every edge (k < 100), so each lookup does the
      // same work whatever its constant; the data test still runs.
      r.text = "q(y, z) := ()[d][k < 100]() (@n" + k + ", y), ()[b]() (y, z)";
      break;
    case kShortestPoint:
      r.tag = "paths_shortest";
      r.language = QueryLanguage::kPaths;
      r.text = "(a|b){1,3}";
      r.paths.from = "n" + k;
      r.paths.to = "n" + std::to_string(ZipfNode(rng));
      r.paths.mode = PathMode::kShortest;
      break;
    case kKShortestPoint:
      r.tag = "paths_kshortest";
      r.language = QueryLanguage::kPaths;
      r.text = "(c|d){1,3}";
      r.paths.from = "n" + k;
      r.paths.to = "n" + std::to_string(ZipfNode(rng));
      r.paths.k_shortest = 2;
      break;
    case kSparseLabel:
      r.tag = "rpq_sparse";
      r.language = QueryLanguage::kRpq;
      r.text = "w";
      r.stable = false;  // the writes move these edges
      break;
    default:
      r.tag = "rpq_stream";
      r.language = QueryLanguage::kRpq;
      r.text = rng->Below(2) == 0 ? "a" : "b";
      r.max_display_rows = 3000;
      break;
  }
  return r;
}

Request WireMixed::TemplateRead(size_t index, size_t conn) {
  return Read(index, &streams_[conn], conn);
}

Request WireMixed::NextWrite(size_t conn) {
  Rng* rng = &streams_[conn];
  Chain& chain = chains_[conn];
  const std::string prefix = "w" + std::to_string(conn) + "_";
  chain.pending_ends = {Node(rng->Below(config_.nodes)),
                        Node(rng->Below(config_.nodes))};
  Request r;
  r.write = true;
  r.conn = conn;
  r.tag = "write";
  r.ops = {"del-edge " + prefix + std::to_string(chain.live),
           "add-edge " + prefix + std::to_string(chain.next) + " " +
               chain.pending_ends.first + " " + chain.pending_ends.second +
               " w"};
  return r;
}

Request WireMixed::Next(size_t conn) {
  Rng* rng = &streams_[conn];
  std::vector<size_t>& deck = decks_[conn];
  if (deck.empty()) {
    deck.assign(std::begin(kDeck), std::end(kDeck));
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng->Below(i)]);
    }
  }
  const size_t kind = deck.back();
  deck.pop_back();
  return kind == kWrite ? NextWrite(conn) : Read(kind, rng, conn);
}

void WireMixed::Acked(const Request& r, bool ok) {
  if (!ok) {
    ++failed_writes_;
    return;
  }
  Chain& chain = chains_[r.conn];
  chain.live = chain.next++;
  chain.live_ends = chain.pending_ends;
}

std::vector<std::pair<std::string, std::pair<std::string, std::string>>>
WireMixed::ExpectedWEdges() const {
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>> out;
  for (size_t c = 0; c < chains_.size(); ++c) {
    out.push_back({"w" + std::to_string(c) + "_" +
                       std::to_string(chains_[c].live),
                   chains_[c].live_ends});
  }
  return out;
}

// --- closed-loop workloads ---------------------------------------------------

ClosedWorkload::ClosedWorkload(std::string name, uint64_t seed,
                               ClosedConfig config)
    : name_(std::move(name)), seed_(seed), config_(config) {
  if (name_ == "join_heavy") {
    BuildJoinHeavy();
  } else {
    BuildPathHeavy();
  }
  // Issue order: whole shuffled rounds, so every read runs equally often.
  Rng rng(StreamSeed(seed_, 9));
  for (size_t round = 0; round < 64; ++round) {
    std::vector<size_t> perm(reads_.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Below(i)]);
    }
    order_.insert(order_.end(), perm.begin(), perm.end());
  }
}

namespace {

/// Replaces the label placeholders {A}..{D} with `labels[0..3]`.
std::string Fill(std::string text, const std::string& labels) {
  for (size_t i = 0; i < 4; ++i) {
    const std::string slot = {'{', static_cast<char>('A' + i), '}'};
    for (size_t p = text.find(slot); p != std::string::npos;
         p = text.find(slot, p)) {
      text.replace(p, slot.size(), 1, labels[i]);
    }
  }
  return text;
}

Request MakeRead(QueryLanguage language, std::string text, std::string tag) {
  Request r;
  r.language = language;
  r.text = std::move(text);
  r.tag = std::move(tag);
  return r;
}

constexpr const char* kOneCheap =
    "( ()[Transfer] )* ()[Transfer][amount < 4500000] ( ()[Transfer] )* ()";

}  // namespace

void ClosedWorkload::BuildJoinHeavy() {
  // Eight join shapes under the four rotations of the labels, so every
  // label takes every position once: 32 distinct texts.
  for (const std::string labels : {"abcd", "bcda", "cdab", "dabc"}) {
    auto add = [&](QueryLanguage language, const char* text, const char* tag) {
      reads_.push_back(MakeRead(language, Fill(text, labels), tag));
    };
    add(QueryLanguage::kCrpq, "q(x, z) :- {A}(x, y), {B}(y, z)", "crpq_chain2");
    add(QueryLanguage::kCrpq, "q(x) :- {A}(x, y), {B}(y, z), {C}(z, w)",
        "crpq_chain3");
    add(QueryLanguage::kCrpq, "q(x) :- {A}(x, y), {B}(x, z), {C}(x, w)",
        "crpq_star");
    add(QueryLanguage::kCrpq, "q(x, y, z) :- {A}(x, y), {B}(y, z), {C}(z, x)",
        "crpq_triangle");
    add(QueryLanguage::kCrpq,
        "q(x, z) :- {A}(x, y), {B}(y, z), {C}(z, w), {D}(w, x)", "crpq_4cycle");
    add(QueryLanguage::kDlCrpq,
        "q(x, z) := ()[{A}][k < 50]() (x, y), ()[{B}]() (y, z)", "dlcrpq_chain2");
    add(QueryLanguage::kCoreGql, "MATCH (x)-[:{A}]->(y)-[:{B}]->(z) RETURN x, z",
        "coregql_chain2");
    add(QueryLanguage::kCoreGql,
        "MATCH (x)-[:{A}]->(y), (y)-[:{B}]->(z), (z)-[:{C}]->(x) RETURN x, y, z",
        "coregql_triangle");
  }
}

void ClosedWorkload::BuildPathHeavy() {
  Rng rng(StreamSeed(seed_, 5));
  const size_t n = config_.nodes;
  auto node = [&](size_t i) { return "n" + std::to_string(i); };
  // Endpoint pairs come in two kinds, alternating: "near" pairs are the
  // ends of a four-step random walk over the query's labels, so a path
  // exists and searches can stop early; "far" pairs have no path over those
  // labels at all, so searches run to exhaustion. Fixing the mix keeps a
  // run's cost from hinging on a few seeded pairs.
  std::vector<std::vector<RandomEdge>> out(n);
  for (const RandomEdge& e : RandomComponentEdges(n, config_.edges,
                                                  StreamSeed(seed_, 0))) {
    out[e.src].push_back(e);
  }
  auto allowed = [](const std::string& alphabet, const RandomEdge& e) {
    return alphabet.find(static_cast<char>('a' + e.label)) != std::string::npos;
  };
  auto reachable = [&](size_t u, const std::string& alphabet) {
    std::vector<bool> seen(n, false);
    std::vector<size_t> stack = {u};
    while (!stack.empty()) {
      const size_t x = stack.back();
      stack.pop_back();
      for (const RandomEdge& e : out[x]) {
        if (allowed(alphabet, e) && !seen[e.tgt]) {
          seen[e.tgt] = true;
          stack.push_back(e.tgt);
        }
      }
    }
    return seen;
  };
  size_t next_pair = 0;
  auto pair = [&](const std::string& alphabet, bool near) {
    size_t u = rng.Below(n);
    size_t v = u;
    if (near || next_pair++ % 2 == 0) {
      for (size_t h = 0; h < 4; ++h) {
        std::vector<size_t> steps;
        for (const RandomEdge& e : out[v]) {
          if (allowed(alphabet, e)) steps.push_back(e.tgt);
        }
        if (steps.empty()) break;
        v = steps[rng.Below(steps.size())];
      }
    } else {
      const std::vector<bool> seen = reachable(u, alphabet);
      do {
        v = rng.Below(n);
      } while (seen[v]);
    }
    return std::make_pair(node(u), node(v));
  };
  auto add_path = [&](const std::string& regex, const std::string& alphabet,
                      PathMode mode, size_t k, const char* tag) {
    // k-shortest runs on near pairs only, with k = 1 on the random graph:
    // its best-first frontier on a far pair, or for a k-th path that must
    // detour through a cycle, grows to hundreds of MB and seconds, so a
    // run's cost and peak memory would hinge on a few seeded pairs. The
    // Figure 5 chain and the ring cover k > 1.
    auto [from, to] = pair(alphabet, k > 0);
    Request r = MakeRead(QueryLanguage::kPaths, regex, tag);
    r.paths.from = from;
    r.paths.to = to;
    r.paths.mode = mode;
    r.paths.k_shortest = k;
    reads_.push_back(r);
  };
  for (const char* text : {"a b", "b c d", "(a|b) c", "d a?"}) {
    reads_.push_back(MakeRead(QueryLanguage::kRpq, text, "rpq_bounded"));
  }
  // Path reads share one plan per regex, whatever their endpoints, so many
  // pairs keep the cache warm and average out the cost of any single pair.
  for (int i = 0; i < 32; ++i) {
    add_path("(a|b)+", "ab", PathMode::kShortest, 0, "paths_shortest");
  }
  for (int i = 0; i < 16; ++i) {
    add_path("(a|c)+", "ac", PathMode::kAll, 1, "paths_kshortest");
  }
  // A simple or trail search's cost hinges on its pair far more than a
  // shortest search's; short bounds keep every pair cheap, so that the
  // median read stays inside the shortest-path cluster.
  for (int i = 0; i < 16; ++i) {
    add_path("(a|b|c){1,8}", "abc", PathMode::kSimple, 0, "paths_simple");
    add_path("(b|c|d){1,8}", "bcd", PathMode::kTrail, 0, "paths_trail");
  }
  reads_.push_back(MakeRead(QueryLanguage::kGqlGroup,
                            "(x) (-[t:a]->(v)){1,2} (y)", "gqlgroup"));
  reads_.push_back(MakeRead(QueryLanguage::kGqlGroup,
                            "(x) (-[t:c]->(v)){2,2} (y)", "gqlgroup"));

  // Figure 5: the diamond chain s -> ... -> t with two parallel p-edges per
  // segment has 2^segments s-t paths, all shortest.
  const size_t segments = config_.diamond_segments;
  Request fig5 = MakeRead(QueryLanguage::kPaths, "p+", "fig5_all");
  fig5.paths.from = "s";
  fig5.paths.to = "t";
  fig5.paths.mode = PathMode::kAll;
  fig5.max_results = (size_t{1} << segments) + 1;
  fig5.max_display_rows = 8;
  pinned_rows_.push_back({reads_.size(), size_t{1} << segments});
  reads_.push_back(fig5);
  Request fig5k = fig5;
  fig5k.tag = "fig5_kshortest";
  fig5k.max_results.reset();
  fig5k.paths.k_shortest = 16;
  pinned_rows_.push_back({reads_.size(), 16});
  reads_.push_back(fig5k);

  // Section 6.3's data-filter detour on a transfer ring: the shortest walk
  // with one cheap transfer must run around the ring through the single
  // cheap edge, so its length is known in closed form.
  const size_t accounts = config_.ring_accounts;
  ring_cheap_ = rng.Below(accounts);
  for (int i = 0; i < 4; ++i) {
    const size_t u = rng.Below(accounts);
    const size_t v = rng.Below(accounts);
    Request r = MakeRead(QueryLanguage::kPaths, kOneCheap, "ring_detour");
    r.paths.from = "acct" + std::to_string(u);
    r.paths.to = "acct" + std::to_string(v);
    r.paths.mode = PathMode::kShortest;
    r.max_path_length = 2 * accounts + 2;
    auto dist = [&](size_t from, size_t to) {
      return (to + accounts - from) % accounts;
    };
    Request k = r;
    k.tag = "ring_kshortest";
    k.text = "Transfer+";
    k.paths.mode = PathMode::kAll;
    k.paths.k_shortest = 4;
    pinned_rows_.push_back({reads_.size(), 4});
    reads_.push_back(k);
    pinned_rows_.push_back({reads_.size(), 1});
    pinned_lengths_.push_back(
        {reads_.size(), dist(u, ring_cheap_) + 1 + dist(ring_cheap_ + 1, v)});
    reads_.push_back(r);
  }
}

PropertyGraph ClosedWorkload::MakeGraph() const {
  PropertyGraph g;
  AddRandomComponent(&g, config_.nodes, config_.edges, StreamSeed(seed_, 0));
  if (config_.diamond_segments > 0) {
    std::vector<NodeId> chain;
    chain.push_back(g.AddNode("s", "D"));
    for (size_t i = 1; i < config_.diamond_segments; ++i) {
      chain.push_back(g.AddNode("d" + std::to_string(i), "D"));
    }
    chain.push_back(g.AddNode("t", "D"));
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      g.AddEdge(chain[i], chain[i + 1], "p");
      g.AddEdge(chain[i], chain[i + 1], "p");
    }
  }
  if (config_.ring_accounts > 0) {
    Rng rng(StreamSeed(seed_, 6));
    const size_t accounts = config_.ring_accounts;
    std::vector<NodeId> ring;
    for (size_t i = 0; i < accounts; ++i) {
      ring.push_back(g.AddNode("acct" + std::to_string(i), "Account"));
    }
    for (size_t i = 0; i < accounts; ++i) {
      gqzoo::EdgeId e = g.AddEdge(ring[i], ring[(i + 1) % accounts],
                                  "Transfer", "tr" + std::to_string(i));
      const double amount = i == ring_cheap_
                                ? 1000.0 + static_cast<double>(rng.Below(1000))
                                : 5e6 + static_cast<double>(rng.Below(1000000));
      g.SetProperty(ObjectRef::Edge(e), "amount", Value(amount));
    }
  }
  return g;
}

}  // namespace perf
