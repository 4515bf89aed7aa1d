// Executor microbench (DESIGN.md §5.13): the columnar pipeline on
// non-selective recompute shapes.
//
// Measures the full intra-query pipeline (patterns -> filters -> projection)
// over an in-memory neighbor source on the paper's group-II *non-selective*
// recompute shapes — L4/L5/L6 analogues whose first pattern binds nothing, so
// execution starts from an index scan and every later step is a bound
// expansion over tens of thousands of intermediate rows: per-chunk batched
// gathers over arena-backed id columns.
//
// Correctness is checked, not assumed: every shape's result must match the
// pinned row count and the pinned digest of its ordered rows, or the bench
// exits 1. Latency is gated outside the binary: `--json <path>` writes the
// recompute (patterns + filters) and full-pipeline p50 histograms consumed by
// scripts/bench_compare.py against BENCH_baseline.json.

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/latency_model.h"
#include "src/engine/executor.h"

namespace wukongs {
namespace bench {
namespace {

constexpr PredicateId kP1 = 1;  // user -> post
constexpr PredicateId kP2 = 2;  // post -> tag
constexpr PredicateId kP3 = 3;  // tag -> category
constexpr PredicateId kP4 = 4;  // user -> location

// In-memory source with contiguous adjacency, exposing the zero-copy
// NeighborSpan fast path the columnar scan-join uses in production stores.
class SpanSource : public NeighborSource {
 public:
  void Add(VertexId s, PredicateId p, VertexId o) {
    map_[Key(s, p, Dir::kOut)].push_back(o);
    map_[Key(o, p, Dir::kIn)].push_back(s);
  }

  // Index values enumerate distinct endpoints, like the store's index vertex.
  void Finalize() {
    std::unordered_map<Key, std::vector<VertexId>, KeyHash> index;
    for (const auto& [key, vids] : map_) {
      if (!key.is_index()) {
        index[Key(kIndexVertex, key.pid(), key.dir())].push_back(key.vid());
      }
    }
    for (auto& [key, vids] : index) {
      std::sort(vids.begin(), vids.end());
      map_[key] = std::move(vids);
    }
  }

  void GetNeighbors(Key key, std::vector<VertexId>* out) const override {
    auto it = map_.find(key);
    if (it != map_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }

  size_t EstimateCount(Key key) const override {
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second.size();
  }

  const VertexId* NeighborSpan(Key key, size_t* n) const override {
    auto it = map_.find(key);
    if (it == map_.end()) {
      *n = 0;
      return nullptr;
    }
    *n = it->second.size();
    return it->second.data();
  }

 private:
  std::unordered_map<Key, std::vector<VertexId>, KeyHash> map_;
};

// Non-selective means fan-out: the group-II shapes start from an index scan
// and multiply through predicates whose average degree is high, so the join
// is dominated by emitting row blocks, not by anchor lookups.
constexpr VertexId kUsers = 400;
constexpr VertexId kPostsPerUser = 12;
constexpr VertexId kTagsPerPost = 8;
constexpr VertexId kTagPool = 500;

VertexId User(VertexId u) { return 1 + u; }
VertexId Post(VertexId u, VertexId j) {
  return 10'000 + u * kPostsPerUser + j;
}
VertexId Tag(VertexId t) { return 1'000'000 + t; }
VertexId Cat(VertexId c) { return 2'000'000 + c; }
VertexId Loc(VertexId l) { return 3'000'000 + l; }

void BuildGraph(SpanSource* src) {
  for (VertexId u = 0; u < kUsers; ++u) {
    for (VertexId j = 0; j < kPostsPerUser; ++j) {
      VertexId post = Post(u, j);
      src->Add(User(u), kP1, post);
      for (VertexId k = 0; k < kTagsPerPost; ++k) {
        src->Add(post, kP2, Tag((post * kTagsPerPost + k) % kTagPool));
      }
    }
    src->Add(User(u), kP4, Loc(u % 50));
  }
  for (VertexId t = 0; t < kTagPool; ++t) {
    src->Add(Tag(t), kP3, Cat(t % 20));
    src->Add(Tag(t), kP3, Cat(20 + t % 20));
  }
  src->Finalize();
}

TriplePattern Pat(int s, PredicateId p, int o) {
  TriplePattern t;
  t.subject = Term::Variable(s);
  t.predicate = p;
  t.object = Term::Variable(o);
  t.graph = kGraphStored;
  return t;
}

void SelectAll(Query* q) {
  for (size_t v = 0; v < q->var_names.size(); ++v) {
    SelectItem item;
    item.var = static_cast<int>(v);
    q->select.push_back(item);
  }
}

// L4 analogue: 2-hop chain from an unselective seed.
Query MakeL4() {
  Query q;
  q.var_names = {"a", "b", "c"};
  q.patterns = {Pat(0, kP1, 1), Pat(1, kP2, 2)};
  SelectAll(&q);
  return q;
}

// L5 analogue: 3-hop chain.
Query MakeL5() {
  Query q;
  q.var_names = {"a", "b", "c", "d"};
  q.patterns = {Pat(0, kP1, 1), Pat(1, kP2, 2), Pat(2, kP3, 3)};
  SelectAll(&q);
  return q;
}

// L6 analogue: chain plus a second expansion off the seed and a FILTER.
Query MakeL6() {
  Query q;
  q.var_names = {"a", "b", "c", "d"};
  q.patterns = {Pat(0, kP1, 1), Pat(1, kP2, 2), Pat(0, kP4, 3)};
  FilterExpr f;
  f.var = 3;
  f.op = FilterExpr::Op::kNe;
  f.constant = Loc(1);
  q.filters.push_back(f);
  SelectAll(&q);
  return q;
}

// FNV-1a over every value of every row in order, with a row separator: any
// change in content, multiplicity or enumeration order changes the digest.
uint64_t OrderedDigest(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& row : r.rows) {
    for (const ResultValue& v : row) {
      uint64_t bits = v.vid;
      if (v.is_number) {
        std::memcpy(&bits, &v.number, sizeof(bits));
      }
      mix(bits);
    }
    mix(~0ull);
  }
  return h;
}

QueryResult MustRun(const Query& q, const std::vector<int>& plan,
                    const ExecContext& ctx) {
  auto result = ExecutePipeline(q, plan, ctx);
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.status().ToString() << "\n";
    std::abort();
  }
  return std::move(*result);
}

// The recompute section: patterns + FILTERs into the binding table. This is
// what a continuous query re-runs per window trigger (delta recompute unions
// cached chunks with freshly recomputed ones before a single projection), so
// it is the latency the bench-compare gate watches. Aborts on failure.
double RecomputeOnce(const Query& q, const std::vector<int>& plan,
                     const ExecContext& ctx) {
  Stopwatch wall;
  auto table = ExecutePatterns(q, plan, ctx);
  if (table.ok() && ApplyFilters(q, ctx, &*table).ok()) {
    return wall.ElapsedMs();
  }
  std::cerr << "recompute failed\n";
  std::abort();
}

struct Latencies {
  Histogram recompute;  // Gated: patterns + filters.
  Histogram pipeline;   // Reported: full query including projection.
};

Latencies Measure(const Query& q, const std::vector<int>& plan,
                  const ExecContext& ctx, int samples) {
  Latencies out;
  for (int i = -3; i < samples; ++i) {  // Three warmup runs.
    double ms = RecomputeOnce(q, plan, ctx);
    if (i >= 0) {
      out.recompute.Add(ms);
    }
  }
  for (int i = -3; i < samples; ++i) {
    Stopwatch wall;
    QueryResult r = MustRun(q, plan, ctx);
    double ms = wall.ElapsedMs();
    if (i >= 0) {
      out.pipeline.Add(ms);
    }
  }
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace wukongs

int main(int argc, char** argv) {
  using namespace wukongs;
  using namespace wukongs::bench;

  // Fixed allocator thresholds. By default glibc raises its mmap and trim
  // thresholds to the largest block freed so far, so whether a shape's
  // result memory is handed back to the OS (and faulted in again on the next
  // sample) depends on which shapes ran before it: with default thresholds
  // the L6 full-pipeline p50 moved by about 60% with run history alone.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
  const std::string json_path = JsonOutPath(argc, argv);
  BenchArtifact artifact("micro_executor");

  SpanSource src;
  BuildGraph(&src);

  ExecContext ctx;
  ctx.sources = {&src};

  struct Shape {
    const char* name;
    Query q;
    size_t rows;      // Pinned result cardinality.
    uint64_t digest;  // Pinned OrderedDigest of the result.
  };
  std::vector<Shape> shapes = {
      {"L4", MakeL4(), 38400, 0x9be9c43253970673ull},
      {"L5", MakeL5(), 76800, 0x2f0fb1da29b0ad73ull},
      {"L6", MakeL6(), 37632, 0x47df68639f9c1323ull}};

  std::cout << "=== micro_executor: columnar pipeline (§5.13) ===\n";
  std::cout << "graph: " << kUsers << " users x " << kPostsPerUser
            << " posts x " << kTagsPerPost
            << " tags; non-selective index-scan seeds\n\n";
  std::cout << "query   rows      digest              recompute p50 (ms)  "
               "pipeline p50 (ms)\n";

  // Pattern order is already seed-first; a fixed plan keeps baseline updates
  // on identical join orders.
  auto plan_of = [](const Query& q) {
    std::vector<int> plan;
    for (size_t i = 0; i < q.patterns.size(); ++i) {
      plan.push_back(static_cast<int>(i));
    }
    return plan;
  };

  bool ok = true;
  std::vector<uint64_t> digests;
  for (Shape& s : shapes) {
    QueryResult result = MustRun(s.q, plan_of(s.q), ctx);
    digests.push_back(OrderedDigest(result));
    if (result.rows.size() != s.rows || digests.back() != s.digest) {
      ok = false;
      std::fprintf(stderr,
                   "%s: result diverged from the pinned one: %zu rows, "
                   "digest %016llx (pinned %zu rows, %016llx)\n",
                   s.name, result.rows.size(),
                   static_cast<unsigned long long>(digests.back()), s.rows,
                   static_cast<unsigned long long>(s.digest));
    }
  }

  // A discarded warm-up pass over every shape first, so the first shape is
  // not timed while the heap still grows to the largest shape's footprint.
  for (const Shape& s : shapes) {
    Measure(s.q, plan_of(s.q), ctx, 0);
  }
  const int samples = 25;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    Latencies lat = Measure(s.q, plan_of(s.q), ctx, samples);
    std::printf("%-6s  %-8zu  %016llx    %8.3f            %8.3f\n", s.name,
                s.rows, static_cast<unsigned long long>(digests[i]),
                lat.recompute.Median(), lat.pipeline.Median());

    artifact.RecordLatencies("bench_latency_ms",
                             {{"mode", "columnar"}, {"query", s.name}},
                             lat.recompute);
    artifact.RecordLatencies("bench_pipeline_latency_ms",
                             {{"mode", "columnar"}, {"query", s.name}},
                             lat.pipeline);
    artifact.AddCount("bench_result_rows", {{"query", s.name}}, s.rows);
  }

  artifact.Write(json_path);
  if (!ok) {
    std::cerr << "FAIL: executor results diverged from the pinned counts and "
                 "digests\n";
    return 1;
  }
  std::cout << "\nPASS: every shape matches its pinned row count and ordered "
               "digest\n";
  return 0;
}
