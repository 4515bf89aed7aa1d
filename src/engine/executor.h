// Graph-exploration executor shared by the one-shot and continuous engines.
//
// Executes a query's triple patterns in planner order against per-graph
// NeighborSources, then applies FILTERs, GROUP BY and aggregates. The same
// executor runs under both execution modes: distribution and its costs live
// inside the NeighborSource implementations (paper §5 "in-place execution"),
// so pattern evaluation here is pure exploration.
//
// Bindings travel in column-major ColumnarTables (DESIGN.md §5.13): pattern
// expansion is a batched scan-join over arena-allocated id columns, pruning
// steps only touch selection vectors, and OPTIONAL groups run as one batched
// left join per group. Row enumeration order is deterministic and pinned by
// the golden corpus under tests/corpus/results/; the differential harness
// checks results against the independent testkit ReferenceOracle.

#ifndef SRC_ENGINE_EXECUTOR_H_
#define SRC_ENGINE_EXECUTOR_H_

#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/engine/columnar.h"
#include "src/engine/delta_cache.h"
#include "src/engine/neighbor_source.h"
#include "src/engine/result.h"
#include "src/obs/trace.h"
#include "src/rdf/string_server.h"
#include "src/sparql/ast.h"

namespace wukongs {

struct ExecContext {
  // sources[0] answers stored-graph patterns; sources[1 + w] answers patterns
  // scoped to Query::windows[w].
  std::vector<const NeighborSource*> sources;
  const StringServer* strings = nullptr;  // Needed only when FILTERs compare numbers.
  // Per-stage span emission (exec/patterns, exec/filters, exec/project);
  // null = tracing off. `trace_node` is the executing node for the tid field.
  obs::Tracer* tracer = nullptr;
  uint32_t trace_node = 0;
  // Passive per-step statistics observer (§5.14): invoked with the same
  // arguments as the caller's StepHook after every pattern step, regardless
  // of which engine (fork-join or in-place) supplied a hook. The cluster
  // points this at the live-stats collector for production executions only —
  // planning and shadow-parity contexts leave it unset so observation never
  // feeds back on itself.
  std::function<void(const TriplePattern& pattern, size_t rows_before,
                     size_t cols_before, size_t rows_after)>
      observe;
};

// Per-step observer: invoked after each pattern with the pattern, the table
// shape before the step, and the row count after. Fork-join engines use it to
// charge per-step shipping costs.
using StepHook = std::function<void(const TriplePattern& pattern, size_t rows_before,
                                    size_t cols_before, size_t rows_after)>;

// Executes patterns in `plan` order (indices into q.patterns) and returns the
// columnar binding table before projection.
StatusOr<ColumnarTable> ExecutePatterns(const Query& q, const std::vector<int>& plan,
                                        const ExecContext& ctx,
                                        const StepHook& hook = {});

// Left-joins each of q.optionals onto `table`: rows extend with the group's
// bindings when the group matches, otherwise keep their bindings with the
// group's new variables set to kUnboundBinding. Each left row's matches
// follow it directly, in left-row order.
Status ApplyOptionals(const Query& q, const ExecContext& ctx, ColumnarTable* table);

// Applies q.filters to `table` in place. Pure selection: dropped rows leave
// the column data untouched and only shrink the chunk selection vectors.
Status ApplyFilters(const Query& q, const ExecContext& ctx, ColumnarTable* table);

// Projects/aggregates `table` into the result (no solution modifiers).
StatusOr<QueryResult> ProjectResult(const Query& q, const ExecContext& ctx,
                                    const ColumnarTable& table);

// Applies the solution-sequence modifiers (DISTINCT, ORDER BY, LIMIT).
// Separate from ProjectResult so UNION branches can be projected first and
// modified once after concatenation.
Status FinalizeSolution(const Query& q, const ExecContext& ctx,
                        QueryResult* result);

// Runs patterns -> optionals -> filters -> projection. Solution modifiers are
// left to the caller (UNION branches concatenate first).
StatusOr<QueryResult> ExecutePipeline(const Query& q, const std::vector<int>& plan,
                                      const ExecContext& ctx,
                                      const StepHook& hook = {});

// Convenience: plan already chosen; ExecutePipeline + FinalizeSolution. Does
// not handle UNION (the Cluster plans and executes each branch, then
// concatenates and finalizes).
StatusOr<QueryResult> ExecuteQuery(const Query& q, const std::vector<int>& plan,
                                   const ExecContext& ctx);

// --- Shared template-group fan-out (DESIGN.md §5.12) -----------------------
//
// Projects one member registration's result out of the shared probe query's
// result. `probe` selected every canonical variable plain, `member_rows` is
// the member's hash partition (rows whose hole column equals its constant),
// and `var_to_probe_col[v]` gives the probe column holding member variable
// slot `v`. The member's own projection, aggregation and solution modifiers
// (SELECT/GROUP BY/DISTINCT/ORDER BY) run here, on the rebuilt binding
// table, so the fan-out output is bag-identical to evaluating the member's
// query independently.
StatusOr<QueryResult> ProjectMemberFromProbe(
    const Query& q, const ExecContext& ctx, const QueryResult& probe,
    const std::vector<size_t>& member_rows,
    const std::vector<int>& var_to_probe_col);

// --- Delta mode (DESIGN.md §5.9) ------------------------------------------
//
// Applies only to plans with exactly one window-scoped pattern (the caller's
// eligibility gate): the plan splits into a stored-graph prefix, the window
// pattern, and a stored-graph suffix. Each window slice's contribution —
// prefix ⋈ slice, then suffix patterns, OPTIONALs and FILTERs — is
// independent of every other slice, so the trigger's pre-projection table is
// the bag union of per-slice contributions, most of which the DeltaCache
// already holds from earlier triggers.
struct DeltaSpec {
  DeltaCache* cache = nullptr;
  // Position in `plan` (not in q.patterns) of the single window pattern.
  size_t window_pos = 0;
  // The trigger's window slice set, ascending. The new-slice delta is
  // whatever subset the cache does not hold; expired slices were already
  // retired by DeltaCache::BeginTrigger / the GC invalidation hooks.
  std::vector<BatchSeq> batches;
  // Source view of the window pattern's stream restricted to one slice.
  std::function<const NeighborSource*(BatchSeq)> slice_source;
};

struct DeltaTable {
  // Union of contributions, post OPTIONALs + FILTERs, in ascending slice
  // order. The union adopts cached chunks without copying.
  ColumnarTable table;
  // Union came out empty while the query carries FILTERs: the caller must
  // fall back to the cold path so early-exit error semantics (FILTER over a
  // variable the truncated table never bound) stay byte-identical.
  bool fallback = false;
  uint64_t slices_cached = 0;  // This trigger's cache hits.
  uint64_t slices_fresh = 0;   // Slices evaluated against the delta.
};

// Runs the delta pipeline under an "exec/delta" span. The caller has already
// called cache->BeginTrigger for this trigger's epoch and window range.
StatusOr<DeltaTable> ExecuteDeltaPatterns(const Query& q,
                                          const std::vector<int>& plan,
                                          const ExecContext& ctx,
                                          const DeltaSpec& spec);

}  // namespace wukongs

#endif  // SRC_ENGINE_EXECUTOR_H_
