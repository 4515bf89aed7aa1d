#include "src/testkit/reference_oracle.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

namespace wukongs::testkit {
namespace {

// The oracle's working table. Mirrors the *semantics* of the engine's
// ColumnarTable (zero-column tables have one implicit unit row until failed)
// without sharing its code: rows are plain vectors, joins are nested loops.
struct Table {
  std::vector<int> vars;
  std::vector<std::vector<VertexId>> rows;
  bool unit_failed = false;

  int ColumnOf(int var) const {
    for (size_t c = 0; c < vars.size(); ++c) {
      if (vars[c] == var) {
        return static_cast<int>(c);
      }
    }
    return -1;
  }
  size_t NumRows() const {
    return vars.empty() ? (unit_failed ? 0 : 1) : rows.size();
  }
};

// One triple pattern = a bag join against `facts` (already scoped to the
// pattern's graph; predicate filtering happens here). Multiplicity in the
// data is preserved, exactly like SPARQL bag semantics.
void ApplyPattern(const TriplePattern& p, const std::vector<Triple>& facts,
                  Table* t) {
  const bool s_var = p.subject.is_var();
  const bool o_var = p.object.is_var();
  const int s_col = s_var ? t->ColumnOf(p.subject.var) : -1;
  const int o_col = o_var ? t->ColumnOf(p.object.var) : -1;
  const bool s_known = !s_var || s_col >= 0;
  const bool o_known = !o_var || o_col >= 0;
  const bool unit = t->vars.empty();
  const size_t old_rows = t->NumRows();

  auto subject_of = [&](size_t r) {
    return s_var ? t->rows[r][static_cast<size_t>(s_col)] : p.subject.constant;
  };
  auto object_of = [&](size_t r) {
    return o_var ? t->rows[r][static_cast<size_t>(o_col)] : p.object.constant;
  };

  if (s_known && o_known) {
    if (unit) {
      bool found = false;
      for (const Triple& f : facts) {
        if (f.predicate == p.predicate && f.subject == p.subject.constant &&
            f.object == p.object.constant) {
          found = true;
          break;
        }
      }
      if (!found) {
        t->unit_failed = true;
      }
      return;
    }
    std::vector<std::vector<VertexId>> next;
    for (size_t r = 0; r < old_rows; ++r) {
      size_t mult = 0;
      for (const Triple& f : facts) {
        if (f.predicate == p.predicate && f.subject == subject_of(r) &&
            f.object == object_of(r)) {
          ++mult;
        }
      }
      for (size_t m = 0; m < mult; ++m) {
        next.push_back(t->rows[r]);
      }
    }
    t->rows = std::move(next);
    return;
  }

  Table next;
  next.vars = t->vars;
  if (!s_known) {
    next.vars.push_back(p.subject.var);
  }
  if (!o_known) {
    next.vars.push_back(p.object.var);
  }
  auto emit = [&](size_t r, const Triple& f) {
    std::vector<VertexId> row =
        unit ? std::vector<VertexId>{} : t->rows[r];
    if (!s_known) {
      row.push_back(f.subject);
    }
    if (!o_known) {
      row.push_back(f.object);
    }
    next.rows.push_back(std::move(row));
  };
  for (size_t r = 0; r < old_rows; ++r) {
    for (const Triple& f : facts) {
      if (f.predicate != p.predicate) {
        continue;
      }
      if (s_known && f.subject != subject_of(r)) {
        continue;
      }
      if (o_known && f.object != object_of(r)) {
        continue;
      }
      emit(r, f);
    }
  }
  *t = std::move(next);
}

bool NumericValue(const StringServer* strings, VertexId v, double* out) {
  if (strings == nullptr) {
    return false;
  }
  auto str = strings->VertexString(v);
  if (!str.ok()) {
    return false;
  }
  char* end = nullptr;
  double num = std::strtod(str->c_str(), &end);
  if (end == str->c_str()) {
    return false;
  }
  *out = num;
  return true;
}

Status ApplyFilters(const Query& q, const StringServer* strings, Table* t) {
  if (q.filters.empty() || t->vars.empty()) {
    return Status::Ok();
  }
  for (const FilterExpr& f : q.filters) {
    int col = t->ColumnOf(f.var);
    if (col < 0) {
      return Status::InvalidArgument("FILTER references unbound variable ?" +
                                     q.var_names[static_cast<size_t>(f.var)]);
    }
    std::vector<std::vector<VertexId>> next;
    for (auto& row : t->rows) {
      VertexId v = row[static_cast<size_t>(col)];
      bool keep = false;
      if (f.numeric) {
        double num = 0.0;
        if (!NumericValue(strings, v, &num)) {
          continue;  // Non-numeric binding never matches a numeric filter.
        }
        switch (f.op) {
          case FilterExpr::Op::kLt: keep = num < f.number; break;
          case FilterExpr::Op::kLe: keep = num <= f.number; break;
          case FilterExpr::Op::kGt: keep = num > f.number; break;
          case FilterExpr::Op::kGe: keep = num >= f.number; break;
          case FilterExpr::Op::kEq: keep = num == f.number; break;
          case FilterExpr::Op::kNe: keep = num != f.number; break;
        }
      } else {
        bool eq = (v == f.constant);
        keep = (f.op == FilterExpr::Op::kEq) ? eq
               : (f.op == FilterExpr::Op::kNe) ? !eq
                                               : false;
      }
      if (keep) {
        next.push_back(std::move(row));
      }
    }
    t->rows = std::move(next);
  }
  return Status::Ok();
}

// OPTIONAL = per-row left join: the group runs seeded with the row's
// bindings; no match keeps the row with the group's variables unbound.
Status ApplyOptionals(const Query& q,
                      const std::vector<std::vector<Triple>>& scope_facts,
                      Table* t) {
  for (const std::vector<TriplePattern>& group : q.optionals) {
    std::vector<int> new_vars;
    for (const TriplePattern& p : group) {
      for (const Term* term : {&p.subject, &p.object}) {
        if (term->is_var() && t->ColumnOf(term->var) < 0 &&
            std::find(new_vars.begin(), new_vars.end(), term->var) ==
                new_vars.end()) {
          new_vars.push_back(term->var);
        }
      }
    }
    Table next;
    next.vars = t->vars;
    next.vars.insert(next.vars.end(), new_vars.begin(), new_vars.end());
    const size_t old_cols = t->vars.size();
    for (size_t r = 0; r < t->NumRows(); ++r) {
      Table seed;
      seed.vars = t->vars;
      if (old_cols > 0) {
        seed.rows.push_back(t->rows[r]);
      }
      bool dead = false;
      for (const TriplePattern& p : group) {
        size_t scope = p.graph == kGraphStored ? 0 : static_cast<size_t>(p.graph) + 1;
        ApplyPattern(p, scope_facts[scope], &seed);
        if (seed.NumRows() == 0) {
          dead = true;
          break;
        }
      }
      std::vector<VertexId> base =
          old_cols > 0 ? t->rows[r] : std::vector<VertexId>{};
      if (dead) {
        std::vector<VertexId> row = base;
        row.resize(old_cols + new_vars.size(), kUnboundBinding);
        next.rows.push_back(std::move(row));
        continue;
      }
      for (size_t sr = 0; sr < seed.NumRows(); ++sr) {
        std::vector<VertexId> row = base;
        row.resize(old_cols + new_vars.size(), kUnboundBinding);
        for (size_t c = 0; c < new_vars.size(); ++c) {
          int col = seed.ColumnOf(new_vars[c]);
          if (col >= 0) {
            row[old_cols + c] = seed.rows[sr][static_cast<size_t>(col)];
          }
        }
        next.rows.push_back(std::move(row));
      }
    }
    *t = std::move(next);
  }
  return Status::Ok();
}

StatusOr<QueryResult> Project(const Query& q, const StringServer* strings,
                              const Table& t) {
  QueryResult result;
  for (const SelectItem& item : q.select) {
    std::string name = q.var_names[static_cast<size_t>(item.var)];
    switch (item.agg) {
      case AggKind::kNone: break;
      case AggKind::kCount: name = "COUNT(" + name + ")"; break;
      case AggKind::kSum: name = "SUM(" + name + ")"; break;
      case AggKind::kAvg: name = "AVG(" + name + ")"; break;
      case AggKind::kMin: name = "MIN(" + name + ")"; break;
      case AggKind::kMax: name = "MAX(" + name + ")"; break;
    }
    result.columns.push_back(std::move(name));
  }
  if (t.NumRows() == 0) {
    return result;
  }

  if (!q.has_aggregates()) {
    std::vector<int> cols;
    for (const SelectItem& item : q.select) {
      int col = t.ColumnOf(item.var);
      if (col < 0) {
        return Status::InvalidArgument("selected variable is unbound");
      }
      cols.push_back(col);
    }
    for (const auto& row : t.rows) {
      std::vector<ResultValue> out;
      out.reserve(cols.size());
      for (int c : cols) {
        out.push_back(ResultValue::Vertex(row[static_cast<size_t>(c)]));
      }
      result.rows.push_back(std::move(out));
    }
    return result;
  }

  std::vector<int> group_cols;
  for (int var : q.group_by) {
    int col = t.ColumnOf(var);
    if (col < 0) {
      return Status::InvalidArgument("GROUP BY variable is unbound");
    }
    group_cols.push_back(col);
  }
  struct AggState {
    size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    bool seen = false;
  };
  // Ordered map: group output order matches the engine's std::map iteration.
  std::map<std::vector<VertexId>, std::vector<AggState>> groups;
  for (const auto& row : t.rows) {
    std::vector<VertexId> gkey;
    gkey.reserve(group_cols.size());
    for (int c : group_cols) {
      gkey.push_back(row[static_cast<size_t>(c)]);
    }
    auto& states = groups[gkey];
    states.resize(q.select.size());
    for (size_t i = 0; i < q.select.size(); ++i) {
      const SelectItem& item = q.select[i];
      if (item.agg == AggKind::kNone) {
        continue;
      }
      int col = t.ColumnOf(item.var);
      if (col < 0) {
        return Status::InvalidArgument("aggregated variable is unbound");
      }
      AggState& st = states[i];
      st.count += 1;
      if (item.agg != AggKind::kCount) {
        double num = 0.0;
        if (NumericValue(strings, row[static_cast<size_t>(col)], &num)) {
          st.sum += num;
          st.min = st.seen ? std::min(st.min, num) : num;
          st.max = st.seen ? std::max(st.max, num) : num;
          st.seen = true;
        }
      }
    }
  }
  for (const auto& [gkey, states] : groups) {
    std::vector<ResultValue> row;
    row.reserve(q.select.size());
    for (size_t i = 0; i < q.select.size(); ++i) {
      const SelectItem& item = q.select[i];
      if (item.agg == AggKind::kNone) {
        int col = t.ColumnOf(item.var);
        bool found = false;
        for (size_t g = 0; g < group_cols.size(); ++g) {
          if (group_cols[g] == col) {
            row.push_back(ResultValue::Vertex(gkey[g]));
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::InvalidArgument(
              "non-aggregated select variable must appear in GROUP BY");
        }
        continue;
      }
      const AggState& st = states[i];
      switch (item.agg) {
        case AggKind::kCount:
          row.push_back(ResultValue::Number(static_cast<double>(st.count)));
          break;
        case AggKind::kSum:
          row.push_back(ResultValue::Number(st.sum));
          break;
        case AggKind::kAvg:
          row.push_back(ResultValue::Number(
              st.count > 0 && st.seen ? st.sum / static_cast<double>(st.count)
                                      : 0.0));
          break;
        case AggKind::kMin:
          row.push_back(ResultValue::Number(st.seen ? st.min : 0.0));
          break;
        case AggKind::kMax:
          row.push_back(ResultValue::Number(st.seen ? st.max : 0.0));
          break;
        case AggKind::kNone:
          break;
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

Status Finalize(const Query& q, const StringServer* strings,
                QueryResult* result) {
  if (q.distinct) {
    std::vector<std::vector<ResultValue>> unique;
    std::set<std::vector<std::pair<bool, uint64_t>>> seen;
    for (auto& row : result->rows) {
      std::vector<std::pair<bool, uint64_t>> key;
      key.reserve(row.size());
      for (const ResultValue& v : row) {
        // Exact numeric identity; -0.0 and 0.0 are the same value.
        const double num = v.number == 0.0 ? 0.0 : v.number;
        key.emplace_back(v.is_number,
                         v.is_number ? std::bit_cast<uint64_t>(num) : v.vid);
      }
      if (seen.insert(std::move(key)).second) {
        unique.push_back(std::move(row));
      }
    }
    result->rows = std::move(unique);
  }
  if (!q.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;
    for (const OrderKey& key : q.order_by) {
      bool found = false;
      for (size_t c = 0; c < q.select.size(); ++c) {
        if (q.select[c].var == key.var && q.select[c].agg == AggKind::kNone) {
          keys.emplace_back(c, key.descending);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "ORDER BY variable must appear (un-aggregated) in SELECT");
      }
    }
    auto value_cmp = [strings](const ResultValue& a, const ResultValue& b) -> int {
      if (a.is_number != b.is_number) {
        return a.is_number ? -1 : 1;
      }
      if (a.is_number) {
        return a.number < b.number ? -1 : (a.number > b.number ? 1 : 0);
      }
      if (strings != nullptr) {
        auto sa = strings->VertexString(a.vid);
        auto sb = strings->VertexString(b.vid);
        if (sa.ok() && sb.ok()) {
          return sa->compare(*sb) < 0 ? -1 : (*sa == *sb ? 0 : 1);
        }
      }
      return a.vid < b.vid ? -1 : (a.vid > b.vid ? 1 : 0);
    };
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [&](const auto& ra, const auto& rb) {
                       for (const auto& [col, desc] : keys) {
                         int cmp = value_cmp(ra[col], rb[col]);
                         if (cmp != 0) {
                           return desc ? cmp > 0 : cmp < 0;
                         }
                       }
                       return false;
                     });
  }
  if (q.limit > 0 && result->rows.size() > q.limit) {
    result->rows.resize(q.limit);
  }
  return Status::Ok();
}

}  // namespace

ReferenceOracle::ReferenceOracle(const StringServer* strings,
                                 uint64_t batch_interval_ms,
                                 uint64_t batches_per_sn)
    : strings_(strings),
      interval_ms_(batch_interval_ms),
      batches_per_sn_(batches_per_sn) {}

void ReferenceOracle::LoadBase(std::span<const Triple> triples) {
  for (const Triple& t : triples) {
    facts_.push_back(Fact{-1, 0, false, t});
  }
}

StreamId ReferenceOracle::DefineStream(const std::string& name) {
  StreamId id = static_cast<StreamId>(stream_ids_.size());
  stream_ids_.emplace(name, id);
  return id;
}

void ReferenceOracle::AddBatch(StreamId stream, BatchSeq seq,
                               const StreamTupleVec& tuples) {
  for (const StreamTuple& t : tuples) {
    facts_.push_back(Fact{static_cast<int32_t>(stream), seq,
                          t.kind == TupleKind::kTiming, t.triple});
  }
}

StatusOr<std::vector<Triple>> ReferenceOracle::ScopeFacts(
    const Query& q, int graph, SnapshotNum snapshot,
    const VectorTimestamp& stable, StreamTime end_ms) const {
  std::vector<Triple> out;
  if (graph == kGraphStored) {
    // Base facts plus timeless stream facts whose batch the SN-VTS plan
    // assigns to a snapshot <= `snapshot` (b <= snapshot*batches_per_sn - 1).
    for (const Fact& f : facts_) {
      if (f.stream < 0) {
        out.push_back(f.triple);
      } else if (!f.timing && f.seq < snapshot * batches_per_sn_) {
        out.push_back(f.triple);
      }
    }
    return out;
  }
  const WindowSpec& w = q.windows[static_cast<size_t>(graph)];
  auto it = stream_ids_.find(w.stream_name);
  if (it == stream_ids_.end()) {
    return Status::NotFound("oracle: unknown stream " + w.stream_name);
  }
  const int32_t sid = static_cast<int32_t>(it->second);
  BatchSeq lo = 0;
  BatchSeq hi = 0;
  bool empty = false;
  if (w.absolute) {
    lo = w.from_ms / interval_ms_;
    hi = (w.to_ms - 1) / interval_ms_;
    BatchSeq have = stable.Get(it->second);
    if (have == kNoBatch || have < lo) {
      empty = true;
    } else if (hi > have) {
      hi = have;
    }
  } else {
    if (end_ms == 0) {
      empty = true;
    } else {
      StreamTime start = end_ms > w.range_ms ? end_ms - w.range_ms : 0;
      lo = start / interval_ms_;
      hi = (end_ms - 1) / interval_ms_;
    }
  }
  if (empty) {
    return out;
  }
  for (const Fact& f : facts_) {
    if (f.stream == sid && f.seq >= lo && f.seq <= hi) {
      out.push_back(f.triple);
    }
  }
  return out;
}

StatusOr<QueryResult> ReferenceOracle::Evaluate(const Query& q,
                                                SnapshotNum snapshot,
                                                const VectorTimestamp& stable,
                                                StreamTime end_ms) const {
  // Materialize every scope once: index 0 = stored, 1 + w = window w.
  std::vector<std::vector<Triple>> scopes;
  auto stored = ScopeFacts(q, kGraphStored, snapshot, stable, end_ms);
  if (!stored.ok()) {
    return stored.status();
  }
  scopes.push_back(std::move(*stored));
  for (size_t w = 0; w < q.windows.size(); ++w) {
    auto facts = ScopeFacts(q, static_cast<int>(w), snapshot, stable, end_ms);
    if (!facts.ok()) {
      return facts.status();
    }
    scopes.push_back(std::move(*facts));
  }

  // No early exit on an empty intermediate join: the engine breaks out of
  // its (planner-ordered) pattern loop, which makes its set of bound columns
  // — and hence "unbound FILTER variable" rejections — plan-order dependent.
  // The oracle instead evaluates every pattern (cheap: joins against a
  // zero-row table stay zero-row), so all pattern variables are always bound
  // and the result is the pure bag semantics. HasEmptyJoin() lets the
  // harness reconcile the engine's early-exit rejections.
  auto eval_patterns = [&](const std::vector<TriplePattern>& patterns) {
    Table t;
    for (const TriplePattern& p : patterns) {
      size_t scope = p.graph == kGraphStored ? 0 : static_cast<size_t>(p.graph) + 1;
      ApplyPattern(p, scopes[scope], &t);
    }
    return t;
  };

  if (!q.unions.empty()) {
    // Mirror Cluster::ExecuteUnion: each branch runs the full pipeline with
    // modifiers deferred, rows are concatenated, then DISTINCT / ORDER BY /
    // LIMIT apply once over the union.
    QueryResult total;
    for (const std::vector<TriplePattern>& branch : q.unions) {
      Query bq = q;
      bq.patterns = branch;
      bq.unions.clear();
      bq.distinct = false;
      bq.order_by.clear();
      bq.limit = 0;
      Table t = eval_patterns(branch);
      Status os = ApplyOptionals(bq, scopes, &t);
      if (!os.ok()) {
        return os;
      }
      Status fs = ApplyFilters(bq, strings_, &t);
      if (!fs.ok()) {
        return fs;
      }
      auto branch_result = Project(bq, strings_, t);
      if (!branch_result.ok()) {
        return branch_result.status();
      }
      if (total.columns.empty()) {
        total.columns = branch_result->columns;
      }
      for (auto& row : branch_result->rows) {
        total.rows.push_back(std::move(row));
      }
    }
    Status fin = Finalize(q, strings_, &total);
    if (!fin.ok()) {
      return fin;
    }
    return total;
  }

  Table t = eval_patterns(q.patterns);
  Status os = ApplyOptionals(q, scopes, &t);
  if (!os.ok()) {
    return os;
  }
  Status fs = ApplyFilters(q, strings_, &t);
  if (!fs.ok()) {
    return fs;
  }
  auto result = Project(q, strings_, t);
  if (!result.ok()) {
    return result;
  }
  Status fin = Finalize(q, strings_, &result.value());
  if (!fin.ok()) {
    return fin;
  }
  return result;
}

StatusOr<bool> ReferenceOracle::HasEmptyJoin(const Query& q,
                                             SnapshotNum snapshot,
                                             const VectorTimestamp& stable,
                                             StreamTime end_ms) const {
  std::vector<std::vector<Triple>> scopes;
  auto stored = ScopeFacts(q, kGraphStored, snapshot, stable, end_ms);
  if (!stored.ok()) {
    return stored.status();
  }
  scopes.push_back(std::move(*stored));
  for (size_t w = 0; w < q.windows.size(); ++w) {
    auto facts = ScopeFacts(q, static_cast<int>(w), snapshot, stable, end_ms);
    if (!facts.ok()) {
      return facts.status();
    }
    scopes.push_back(std::move(*facts));
  }
  auto join_empty = [&](const std::vector<TriplePattern>& patterns) {
    Table t;
    for (const TriplePattern& p : patterns) {
      size_t scope = p.graph == kGraphStored ? 0 : static_cast<size_t>(p.graph) + 1;
      ApplyPattern(p, scopes[scope], &t);
    }
    return t.NumRows() == 0;
  };
  if (q.unions.empty()) {
    return join_empty(q.patterns);
  }
  for (const std::vector<TriplePattern>& branch : q.unions) {
    if (join_empty(branch)) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> CanonicalBag(const QueryResult& result) {
  std::vector<std::string> lines;
  lines.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string line;
    for (const ResultValue& v : row) {
      if (!line.empty()) {
        line += '|';
      }
      if (v.is_number) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "n:%.9g", v.number);
        line += buf;
      } else {
        line += "v:" + std::to_string(v.vid);
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace wukongs::testkit
