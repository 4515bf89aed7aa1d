// Reference oracle: a deliberately naive interpreter for the SPARQL /
// C-SPARQL subset, used as the executable specification the real engine is
// differentially tested against (DESIGN.md §5.7).
//
// The oracle shares only the parser and the AST with the production engine.
// It holds every fact — base triples plus timeless and timing stream tuples —
// in one flat vector and evaluates queries by brute force: each triple
// pattern is a bag join against the multiset of facts visible in its graph
// scope. No stores, no snapshot markers, no stream index, no vector
// timestamps — visibility is recomputed from first principles on every query:
//
//   * stored graph at snapshot SN:  base facts, plus every *timeless* stream
//     fact whose batch b satisfies b <= SN * batches_per_sn - 1 (the SN-VTS
//     plan assigns batch b of every stream to SN floor(b / batches_per_sn)+1;
//     SN 0 is the base snapshot and sees no stream data);
//   * relative window [RANGE r] ending at `end`: all facts (timeless and
//     timing) of the window's stream with batch in
//     [ floor(max(end - r, 0) / interval), floor((end - 1) / interval) ],
//     empty iff end == 0;
//   * absolute window [FROM a TO b): batches [ floor(a/interval),
//     floor((b-1)/interval) ] clamped to the stable frontier of the stream —
//     empty when the frontier has not reached the lower bound.
//
// Out of scope (the generator avoids them; see DESIGN.md §5.7): self-loop
// patterns (`?x p ?x` — the engine treats the two positions as independent
// columns), constant-constant patterns (their multiplicity depends on plan
// order), ORDER BY row order and LIMIT (results are compared as bags).

#ifndef SRC_TESTKIT_REFERENCE_ORACLE_H_
#define SRC_TESTKIT_REFERENCE_ORACLE_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/engine/result.h"
#include "src/rdf/string_server.h"
#include "src/rdf/triple.h"
#include "src/sparql/ast.h"
#include "src/stream/vts.h"

namespace wukongs::testkit {

class ReferenceOracle {
 public:
  // `strings` resolves vertex IDs for numeric filters/aggregates and must be
  // the same server the engine interns against (IDs must agree).
  ReferenceOracle(const StringServer* strings, uint64_t batch_interval_ms,
                  uint64_t batches_per_sn);

  void LoadBase(std::span<const Triple> triples);
  // Streams must be defined in the same order as on the engine side so the
  // name -> id mapping agrees.
  StreamId DefineStream(const std::string& name);
  // Records one batch's content. Feed the *post-door-shed* batch (what
  // Cluster::SetBatchLogger delivers) so shedding runs check "correct modulo
  // declared loss" exactly.
  void AddBatch(StreamId stream, BatchSeq seq, const StreamTupleVec& tuples);

  // Evaluates `q` the way the engine claims to have evaluated it: stored
  // patterns at `snapshot`, relative windows ending at `end_ms`, absolute
  // windows clamped to `stable`. For one-shot queries pass end_ms = 0.
  StatusOr<QueryResult> Evaluate(const Query& q, SnapshotNum snapshot,
                                 const VectorTimestamp& stable,
                                 StreamTime end_ms) const;

  // True when the full pattern join of `q` (or of any UNION branch) is empty
  // under the same visibility. The engine exits its pattern loop early on an
  // empty intermediate table, leaving later variables unbound; a FILTER over
  // such a variable is then rejected with kInvalidArgument even though the
  // pure bag semantics would yield an empty result. Whether that happens
  // depends on the planner's pattern order, so the harness accepts an engine
  // kInvalidArgument iff the oracle rejects too or this returns true.
  StatusOr<bool> HasEmptyJoin(const Query& q, SnapshotNum snapshot,
                              const VectorTimestamp& stable,
                              StreamTime end_ms) const;

  size_t fact_count() const { return facts_.size(); }

 private:
  struct Fact {
    int32_t stream = -1;  // -1 = base (stored) fact.
    BatchSeq seq = 0;
    bool timing = false;
    Triple triple;
  };

  // Materializes the fact multiset of one graph scope (kGraphStored or a
  // window index of `q`).
  StatusOr<std::vector<Triple>> ScopeFacts(const Query& q, int graph,
                                           SnapshotNum snapshot,
                                           const VectorTimestamp& stable,
                                           StreamTime end_ms) const;

  const StringServer* strings_;
  const uint64_t interval_ms_;
  const uint64_t batches_per_sn_;
  std::vector<Fact> facts_;
  std::unordered_map<std::string, StreamId> stream_ids_;
};

// Canonical order-insensitive form of a result: one sorted line per row.
// Two results are bag-equal iff their canonical forms are equal; the joined
// string doubles as a human-readable diff in failure messages.
std::vector<std::string> CanonicalBag(const QueryResult& result);

}  // namespace wukongs::testkit

#endif  // SRC_TESTKIT_REFERENCE_ORACLE_H_
