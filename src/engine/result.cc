#include "src/engine/result.h"

namespace wukongs {

std::unordered_map<VertexId, std::vector<size_t>> PartitionRowsByColumn(
    const QueryResult& result, size_t col) {
  // Column-wise two-pass partition (DESIGN.md §5.13): gather the key column
  // into a flat id array first — one value per row instead of striding whole
  // ResultValue rows through the cache — then bucket over the contiguous
  // keys. Bucket contents stay in ascending row order either way.
  std::vector<VertexId> keys;
  keys.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    keys.push_back(row[col].vid);
  }
  std::unordered_map<VertexId, std::vector<size_t>> partitions;
  partitions.reserve(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    partitions[keys[r]].push_back(r);
  }
  return partitions;
}

}  // namespace wukongs
