// Relational query primitives used by the baseline systems.
//
// CSPARQL-engine (Esper+Jena), Storm/Heron bolts and Spark SQL all evaluate
// basic graph patterns relationally: scan a triple table per pattern, then
// join the per-pattern binding tables on shared variables. This is exactly
// the execution style the paper contrasts with graph exploration — scans
// produce large intermediates and joins multiply them (the "join bomb",
// §2.2/§7) — so the baselines here execute it for real.

#ifndef SRC_BASELINES_RELATIONAL_H_
#define SRC_BASELINES_RELATIONAL_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/engine/result.h"
#include "src/rdf/string_server.h"
#include "src/rdf/triple.h"
#include "src/sparql/ast.h"

namespace wukongs {

// A materialized binding relation: columns are variable slots.
struct RelTable {
  std::vector<int> vars;
  std::vector<std::vector<VertexId>> rows;

  int ColumnOf(int var) const;
  size_t size() const { return rows.size(); }
};

// Triple bag with a per-predicate index (Jena keeps SPO/POS/OSP B-trees; a
// predicate bucket is the moral equivalent for our constant-predicate
// patterns).
class TripleTable {
 public:
  void Add(const Triple& t);
  void AddAll(const TripleVec& triples);
  size_t size() const { return total_; }

  // All triples with this predicate (empty vector if none).
  const TripleVec& WithPredicate(PredicateId p) const;

  size_t MemoryBytes() const;

 private:
  std::unordered_map<PredicateId, TripleVec> by_predicate_;
  TripleVec empty_;
  size_t total_ = 0;
};

// Scans `table` for matches of `p`, producing a relation over the pattern's
// variables. `scanned` (optional) accumulates the number of triples touched,
// for cost accounting.
RelTable ScanPattern(const TripleTable& table, const TriplePattern& p,
                     size_t* scanned = nullptr);

// Hash join on all shared variables (cartesian product when none).
// `intermediate` (optional) accumulates output cardinality.
RelTable HashJoin(const RelTable& a, const RelTable& b, size_t* intermediate = nullptr);

// Applies a FILTER; non-numeric bindings never match numeric filters.
RelTable ApplyRelFilter(const RelTable& in, const FilterExpr& f,
                        const StringServer& strings);

// Projects/aggregates a relation into the engine-wide QueryResult, using the
// same SELECT semantics as the integrated engine.
StatusOr<QueryResult> ProjectRelation(const Query& q, const RelTable& table,
                                      const StringServer& strings);

}  // namespace wukongs

#endif  // SRC_BASELINES_RELATIONAL_H_
