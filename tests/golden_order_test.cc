// Golden enumeration-order corpus for the executor (DESIGN.md §5.13).
//
// The executor promises a deterministic row order: chunks in order, rows in
// order, neighbors in adjacency order, OPTIONAL matches directly after their
// left row. Fork-join serialization, DeltaCache contributions and every
// ORDER-less client see that order, so it is pinned here as ordered golden
// results under tests/corpus/results/ with vertex ids resolved to strings
// (ids depend on interning order; names do not). Each case targets one place
// where order is easy to lose: a fan-out past kColumnarChunkRows, OPTIONAL
// groups with matched and unmatched left rows, FILTERs over selection-vector
// chunks, GROUP BY aggregation, and the delta path's union of per-slice
// contributions (cache hits included).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/engine/executor.h"
#include "src/sparql/parser.h"
#include "src/store/gstore.h"

namespace wukongs {
namespace {

// Adapts one GStore shard as a NeighborSource (no cluster machinery).
class LocalSource : public NeighborSource {
 public:
  explicit LocalSource(const GStore* store) : store_(store) {}

  void GetNeighbors(Key key, std::vector<VertexId>* out) const override {
    store_->GetEdgesInto(key, GStore::kSnapshotInfinity, &tmp_);
    out->insert(out->end(), tmp_.begin(), tmp_.end());
  }
  size_t EstimateCount(Key key) const override {
    return store_->EdgeCount(key, GStore::kSnapshotInfinity);
  }

 private:
  const GStore* store_;
  mutable std::vector<VertexId> tmp_;
};

// Tab-separated rendering: the column header, then one line per row.
// Unbound OPTIONAL variables print as UNBOUND; aggregates print exactly.
std::string Render(const QueryResult& r, const StringServer& strings) {
  std::ostringstream out;
  for (size_t c = 0; c < r.columns.size(); ++c) {
    out << (c > 0 ? "\t" : "") << r.columns[c];
  }
  out << "\n";
  for (const auto& row : r.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c > 0 ? "\t" : "");
      const ResultValue& v = row[c];
      if (v.is_number) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.number);
        out << buf;
      } else if (v.vid == kUnboundBinding) {
        out << "UNBOUND";
      } else {
        auto name = strings.VertexString(v.vid);
        out << (name.ok() ? *name : "?" + std::to_string(v.vid));
      }
    }
    out << "\n";
  }
  return out.str();
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(WUKONGS_TEST_CORPUS_DIR) + "/results/" + name +
                   ".tsv");
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// Line-level comparison so a failure names the first diverging row instead
// of dumping thousands of lines.
::testing::AssertionResult MatchesGolden(const std::string& name,
                                         const std::string& actual) {
  std::string expected = ReadGolden(name);
  if (expected.empty()) {
    return ::testing::AssertionFailure() << "golden file results/" << name
                                         << ".tsv is missing or empty";
  }
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  for (size_t line = 1;; ++line) {
    bool he = static_cast<bool>(std::getline(e, el));
    bool ha = static_cast<bool>(std::getline(a, al));
    if (!he && !ha) {
      return ::testing::AssertionSuccess();
    }
    if (he != ha || el != al) {
      return ::testing::AssertionFailure()
             << name << ".tsv line " << line << ": expected '"
             << (he ? el : "<end>") << "', got '" << (ha ? al : "<end>")
             << "'";
    }
  }
}

// The stored graph every executor-level case runs over. Deterministic and
// shaped so each case hits its target: `hub` follows 60 people whose posts
// fan out past one chunk; some posts are liked (0-2 likers), some people
// have emails (some of those a domain) and aliases; posts carry tags and
// numeric scores.
class ColumnarGoldenOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto load = [&](const std::string& s, const char* p, const std::string& o) {
      store_.LoadTriple({strings_.InternVertex(s), strings_.InternPredicate(p),
                         strings_.InternVertex(o)});
    };
    for (int i = 0; i < 60; ++i) {
      const std::string person = "p" + std::to_string(i);
      load("hub", "fo", person);
      const int posts = 18 + (i * 7) % 11;
      for (int j = 0; j < posts; ++j) {
        const std::string post = "t" + std::to_string(i) + "_" + std::to_string(j);
        load(person, "po", post);
        load(post, "tag", "g" + std::to_string((i + j) % 5));
        if ((i * j) % 4 == 1 && j % 5 != 0) {  // Never a duplicate tag.
          load(post, "tag", "g" + std::to_string((i + 2 * j) % 5));
        }
        for (int k = 0; k < (i + j) % 3; ++k) {
          load(post, "likedby", "p" + std::to_string((i + j + k * 13) % 60));
        }
        load(post, "score", std::to_string((i * 3 + j * 5) % 17) + ".5");
      }
      if (i % 3 != 0) {
        const std::string email = "e" + std::to_string(i);
        load(person, "email", email);
        if (i % 2 == 0) {
          load(email, "domain", "d" + std::to_string(i % 4));
        }
      }
      for (int a = 0; a < i % 4 - 1; ++a) {
        load(person, "alias", "a" + std::to_string(i) + "_" + std::to_string(a));
      }
    }
    source_ = std::make_unique<LocalSource>(&store_);
    ctx_.sources = {source_.get()};
    ctx_.strings = &strings_;
  }

  // Runs `text` with patterns in written order (the plan is part of what is
  // pinned) and renders the finalized result.
  std::string Run(const std::string& text) {
    auto q = ParseQuery(text, &strings_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) {
      return "";
    }
    std::vector<int> plan(q->patterns.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      plan[i] = static_cast<int>(i);
    }
    auto result = ExecuteQuery(*q, plan, ctx_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? Render(*result, strings_) : "";
  }

  size_t Rows(const std::string& rendered) {
    size_t lines = 0;
    for (char c : rendered) {
      lines += c == '\n' ? 1 : 0;
    }
    return lines == 0 ? 0 : lines - 1;  // Minus the header.
  }

  StringServer strings_;
  GStore store_{0};
  std::unique_ptr<LocalSource> source_;
  ExecContext ctx_;
};

TEST_F(ColumnarGoldenOrderTest, FanOutPastOneChunk) {
  std::string out = Run(
      "SELECT ?P ?T ?G WHERE { hub fo ?P . ?P po ?T . ?T tag ?G }");
  EXPECT_GT(Rows(out), kColumnarChunkRows);
  EXPECT_TRUE(MatchesGolden("fanout_multichunk", out));
}

TEST_F(ColumnarGoldenOrderTest, OptionalAfterFanOutSpansChunks) {
  // The left table holds more than kColumnarChunkRows rows, so the joined
  // output spans several chunks.
  std::string out = Run(
      "SELECT ?P ?T ?L WHERE { hub fo ?P . ?P po ?T "
      "OPTIONAL { ?T likedby ?L } }");
  EXPECT_GT(Rows(out), kColumnarChunkRows);
  EXPECT_TRUE(MatchesGolden("fanout_optional_multichunk", out));
}

TEST_F(ColumnarGoldenOrderTest, OptionalMatchedAndUnmatchedRows) {
  // Group one is a two-pattern chain: some people match both patterns, some
  // only the first (the whole group then fails and pads), some neither.
  // Group two matches zero, one or two aliases per person.
  std::string out = Run(
      "SELECT ?P ?E ?D ?A WHERE { hub fo ?P "
      "OPTIONAL { ?P email ?E . ?E domain ?D } "
      "OPTIONAL { ?P alias ?A } }");
  EXPECT_NE(out.find("UNBOUND"), std::string::npos);
  EXPECT_TRUE(MatchesGolden("optional_matched_unmatched", out));
}

TEST_F(ColumnarGoldenOrderTest, FilterOverSelectionVectorChunk) {
  // `?T tag g1` is an existence check on bound ?T: it prunes through the
  // selection vector, so both FILTERs run over a non-dense chunk.
  const std::string text =
      "SELECT ?P ?T ?S WHERE { hub fo ?P . ?P po ?T . ?T score ?S . "
      "?T tag g1 . FILTER (?S >= 8) FILTER (?P != p7) }";
  auto q = ParseQuery(text, &strings_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto table = ExecutePatterns(*q, {0, 1, 2, 3}, ctx_);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  bool sparse = false;
  for (const ColumnarChunk& ch : table->chunks()) {
    sparse = sparse || !ch.dense;
  }
  EXPECT_TRUE(sparse) << "existence check left every chunk dense";

  std::string out = Run(text);
  EXPECT_GT(Rows(out), 0u);
  EXPECT_TRUE(MatchesGolden("filter_nondense", out));
}

TEST_F(ColumnarGoldenOrderTest, GroupByAggregates) {
  std::string out = Run(
      "SELECT ?P (COUNT(?T) AS ?n) (SUM(?S) AS ?s) (AVG(?S) AS ?a) "
      "(MIN(?S) AS ?lo) (MAX(?S) AS ?hi) "
      "WHERE { hub fo ?P . ?P po ?T . ?T score ?S } GROUP BY ?P");
  EXPECT_EQ(Rows(out), 60u);
  EXPECT_TRUE(MatchesGolden("groupby_aggregates", out));
}

// Delta path (§5.9): the trigger's table is the union of per-slice
// contributions in ascending slice order, most of them adopted from the
// DeltaCache. Stored-graph OPTIONALs and FILTERs run per slice.
std::string RunDeltaTriggers() {
  constexpr uint64_t kInterval = 100;
  ClusterConfig config;
  config.nodes = 2;
  config.batch_interval_ms = kInterval;
  config.force_in_place = true;  // The delta path runs in place only.
  Cluster cluster(config);
  StreamId stream = *cluster.DefineStream("S", {"at"});
  StringServer* s = cluster.strings();
  auto v = [&](const std::string& name) { return s->InternVertex(name); };
  TripleVec base;
  for (int i = 0; i < 12; ++i) {
    const std::string person = "p" + std::to_string(i);
    base.push_back({v("hub"), s->InternPredicate("fo"), v(person)});
    if (i % 3 != 1) {
      base.push_back({v(person), s->InternPredicate("email"),
                      v("e" + std::to_string(i))});
    }
  }
  cluster.LoadBase(base);

  auto h = cluster.RegisterContinuous(R"(
      REGISTER QUERY G AS
      SELECT ?P ?W ?E
      FROM STREAM <S> [RANGE 600ms STEP 100ms]
      FROM <Base>
      WHERE {
        GRAPH <Base> { hub fo ?P }
        GRAPH <S>    { ?P at ?W }
        OPTIONAL { GRAPH <Base> { ?P email ?E } }
        FILTER (?P != p5)
      })");
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  if (!h.ok()) {
    return "";
  }
  EXPECT_TRUE(cluster.HasDeltaCache(*h));

  std::string out;
  uint64_t cached = 0;
  for (StreamTime end = kInterval; end <= 1000; end += kInterval) {
    StreamTupleVec tuples;
    const int slice = static_cast<int>(end / kInterval);
    for (int k = 0; k < 4; ++k) {
      const int who = (slice * 5 + k * 7) % 12;
      tuples.push_back({{v("p" + std::to_string(who)), s->InternPredicate("at"),
                         v("L" + std::to_string(slice) + "_" + std::to_string(k))},
                        end - 50,
                        TupleKind::kTiming});
    }
    EXPECT_TRUE(cluster.FeedStream(stream, tuples).ok());
    cluster.AdvanceStreams(end);
    if (end < 600) {
      continue;
    }
    EXPECT_TRUE(cluster.WindowReady(*h, end));
    auto exec = cluster.ExecuteContinuousAt(*h, end);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    if (!exec.ok()) {
      return "";
    }
    EXPECT_TRUE(exec->delta) << "end=" << end;
    EXPECT_GE(exec->delta_slices_cached + exec->delta_slices_fresh, 3u);
    cached += exec->delta_slices_cached;
    out += "## end=" + std::to_string(end) + "\n" + Render(exec->result, *s);
  }
  EXPECT_GT(cached, 0u) << "no trigger adopted a cached contribution";
  return out;
}

TEST(ColumnarGoldenDeltaTest, UnionOverCachedAndFreshSlices) {
  EXPECT_TRUE(MatchesGolden("delta_union", RunDeltaTriggers()));
}

}  // namespace
}  // namespace wukongs
