// Query results, and the unbound-binding sentinel of the executor's tables.
//
// The executor carries bindings in ColumnarTables (src/engine/columnar.h)
// and projects them into a QueryResult: plain variables bind vertex ids,
// aggregate columns are numeric.

#ifndef SRC_ENGINE_RESULT_H_
#define SRC_ENGINE_RESULT_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"

namespace wukongs {

// Sentinel for a variable left unbound by an unmatched OPTIONAL group.
inline constexpr VertexId kUnboundBinding = kMaxVertexId;

// Final query output. Plain variables bind vertex IDs; aggregate columns are
// numeric. The client resolves IDs back to strings via the string server.
struct ResultValue {
  bool is_number = false;
  VertexId vid = 0;
  double number = 0.0;

  static ResultValue Vertex(VertexId v) { return ResultValue{false, v, 0.0}; }
  static ResultValue Number(double n) { return ResultValue{true, 0, n}; }

  friend bool operator==(const ResultValue&, const ResultValue&) = default;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<ResultValue>> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
};

// Fan-out hash-partition stage for shared template-group evaluation
// (DESIGN.md §5.12): buckets `result`'s rows by the vertex bound in column
// `col` (the probe query's hole column). The map's value lists row indices,
// not copies — each member registration then projects only its own bucket.
std::unordered_map<VertexId, std::vector<size_t>> PartitionRowsByColumn(
    const QueryResult& result, size_t col);

}  // namespace wukongs

#endif  // SRC_ENGINE_RESULT_H_
