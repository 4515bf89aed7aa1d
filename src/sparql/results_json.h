// W3C "SPARQL 1.1 Query Results JSON Format" serializer.
//
// Clients and services downstream of the engine typically want
// `application/sparql-results+json`; this renders a QueryResult into that
// shape:
//   { "head": { "vars": [...] },
//     "results": { "bindings": [ { "v": {"type": "uri", "value": "..."} } ] } }
// Numbers (aggregates) become typed literals; unbound OPTIONAL variables are
// omitted from their binding object, exactly as the spec prescribes.

#ifndef SRC_SPARQL_RESULTS_JSON_H_
#define SRC_SPARQL_RESULTS_JSON_H_

#include <string>

#include "src/common/status.h"
#include "src/engine/result.h"
#include "src/rdf/string_server.h"

namespace wukongs {

StatusOr<std::string> ResultsToJson(const QueryResult& result,
                                    const StringServer& strings);

}  // namespace wukongs

#endif  // SRC_SPARQL_RESULTS_JSON_H_
