#include "src/baselines/relational.h"

#include <algorithm>
#include <cstdlib>

#include "src/engine/executor.h"

namespace wukongs {

int RelTable::ColumnOf(int var) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == var) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void TripleTable::Add(const Triple& t) {
  by_predicate_[t.predicate].push_back(t);
  ++total_;
}

void TripleTable::AddAll(const TripleVec& triples) {
  for (const Triple& t : triples) {
    Add(t);
  }
}

const TripleVec& TripleTable::WithPredicate(PredicateId p) const {
  auto it = by_predicate_.find(p);
  return it == by_predicate_.end() ? empty_ : it->second;
}

size_t TripleTable::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [p, triples] : by_predicate_) {
    bytes += 64 + triples.capacity() * sizeof(Triple);
  }
  return bytes;
}

RelTable ScanPattern(const TripleTable& table, const TriplePattern& p,
                     size_t* scanned) {
  RelTable out;
  bool s_var = p.subject.is_var();
  bool o_var = p.object.is_var();
  if (s_var) {
    out.vars.push_back(p.subject.var);
  }
  if (o_var && (!s_var || p.object.var != p.subject.var)) {
    out.vars.push_back(p.object.var);
  }
  const TripleVec& candidates = table.WithPredicate(p.predicate);
  if (scanned != nullptr) {
    *scanned += candidates.size();
  }
  for (const Triple& t : candidates) {
    if (!s_var && t.subject != p.subject.constant) {
      continue;
    }
    if (!o_var && t.object != p.object.constant) {
      continue;
    }
    if (s_var && o_var && p.subject.var == p.object.var && t.subject != t.object) {
      continue;
    }
    std::vector<VertexId> row;
    if (s_var) {
      row.push_back(t.subject);
    }
    if (o_var && (!s_var || p.object.var != p.subject.var)) {
      row.push_back(t.object);
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

RelTable HashJoin(const RelTable& a, const RelTable& b, size_t* intermediate) {
  // Shared variables become the join key.
  std::vector<std::pair<int, int>> shared;  // (col in a, col in b)
  for (size_t i = 0; i < a.vars.size(); ++i) {
    int bc = b.ColumnOf(a.vars[i]);
    if (bc >= 0) {
      shared.emplace_back(static_cast<int>(i), bc);
    }
  }
  RelTable out;
  out.vars = a.vars;
  std::vector<int> b_extra_cols;
  for (size_t i = 0; i < b.vars.size(); ++i) {
    if (a.ColumnOf(b.vars[i]) < 0) {
      out.vars.push_back(b.vars[i]);
      b_extra_cols.push_back(static_cast<int>(i));
    }
  }

  auto key_of = [&shared](const std::vector<VertexId>& row, bool left) {
    // FNV-style combine of the join columns.
    uint64_t h = 1469598103934665603ULL;
    for (const auto& [ac, bc] : shared) {
      uint64_t v = row[static_cast<size_t>(left ? ac : bc)];
      h = (h ^ v) * 1099511628211ULL;
    }
    return h;
  };
  auto rows_match = [&shared](const std::vector<VertexId>& ra,
                              const std::vector<VertexId>& rb) {
    for (const auto& [ac, bc] : shared) {
      if (ra[static_cast<size_t>(ac)] != rb[static_cast<size_t>(bc)]) {
        return false;
      }
    }
    return true;
  };

  // Build on the smaller side.
  std::unordered_multimap<uint64_t, const std::vector<VertexId>*> hash;
  hash.reserve(b.rows.size());
  for (const auto& row : b.rows) {
    hash.emplace(key_of(row, /*left=*/false), &row);
  }
  for (const auto& ra : a.rows) {
    auto [lo, hi] = hash.equal_range(key_of(ra, /*left=*/true));
    for (auto it = lo; it != hi; ++it) {
      const auto& rb = *it->second;
      if (!rows_match(ra, rb)) {
        continue;
      }
      std::vector<VertexId> row = ra;
      for (int bc : b_extra_cols) {
        row.push_back(rb[static_cast<size_t>(bc)]);
      }
      out.rows.push_back(std::move(row));
    }
  }
  if (intermediate != nullptr) {
    *intermediate += out.rows.size();
  }
  return out;
}

RelTable ApplyRelFilter(const RelTable& in, const FilterExpr& f,
                        const StringServer& strings) {
  RelTable out;
  out.vars = in.vars;
  int col = in.ColumnOf(f.var);
  if (col < 0) {
    return out;  // Unbound filter variable: nothing matches.
  }
  for (const auto& row : in.rows) {
    VertexId v = row[static_cast<size_t>(col)];
    bool keep = false;
    if (f.numeric) {
      auto str = strings.VertexString(v);
      if (!str.ok()) {
        continue;
      }
      char* end = nullptr;
      double num = std::strtod(str->c_str(), &end);
      if (end == str->c_str()) {
        continue;
      }
      switch (f.op) {
        case FilterExpr::Op::kLt:
          keep = num < f.number;
          break;
        case FilterExpr::Op::kLe:
          keep = num <= f.number;
          break;
        case FilterExpr::Op::kGt:
          keep = num > f.number;
          break;
        case FilterExpr::Op::kGe:
          keep = num >= f.number;
          break;
        case FilterExpr::Op::kEq:
          keep = num == f.number;
          break;
        case FilterExpr::Op::kNe:
          keep = num != f.number;
          break;
      }
    } else {
      bool eq = v == f.constant;
      keep = f.op == FilterExpr::Op::kEq   ? eq
             : f.op == FilterExpr::Op::kNe ? !eq
                                           : false;
    }
    if (keep) {
      out.rows.push_back(row);
    }
  }
  return out;
}

StatusOr<QueryResult> ProjectRelation(const Query& q, const RelTable& table,
                                      const StringServer& strings) {
  // Reuse the integrated engine's projection/aggregation.
  ColumnarTable bindings;
  for (int v : table.vars) {
    bindings.AddColumn(v);
  }
  if (!table.vars.empty() && !table.rows.empty()) {
    ColumnarChunk* ch = bindings.StartChunk(table.rows.size());
    for (size_t r = 0; r < table.rows.size(); ++r) {
      for (size_t c = 0; c < table.vars.size(); ++c) {
        ch->cols[c][r] = table.rows[r][c];
      }
    }
    ch->size = table.rows.size();
  }
  if (table.vars.empty() && table.rows.empty()) {
    bindings.FailUnit();
  }
  ExecContext ctx;
  ctx.strings = &strings;
  auto result = ProjectResult(q, ctx, bindings);
  if (!result.ok()) {
    return result;
  }
  Status fin = FinalizeSolution(q, ctx, &result.value());
  if (!fin.ok()) {
    return fin;
  }
  return result;
}

}  // namespace wukongs
