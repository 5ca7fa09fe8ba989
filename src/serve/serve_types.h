#ifndef TMN_SERVE_SERVE_TYPES_H_
#define TMN_SERVE_SERVE_TYPES_H_

#include <cstddef>
#include <vector>

// Result vocabulary shared by the server and the micro-batcher
// (docs/SERVING.md). Split from similarity_server.h so the batcher can
// speak in QueryResult without pulling in the index/model headers.

namespace tmn::serve {

// Which degradation tier produced a response (docs/SERVING.md).
enum class ServeTier {
  kEmbeddingAnn,     // Tier 1: TMN encode + HNSW over learned embeddings.
  kExactRerank,      // Tier 2: model-free sketch ANN + exact-metric rerank.
  kSegmented,        // Tier 2.5: crash-safe segmented-index scatter-gather.
  kExactBruteForce,  // Tier 3: bounded exact-metric scan.
};

const char* ServeTierName(ServeTier tier);

// One answered query. `indices` are database positions, nearest first
// under the server's exact metric ordering for tiers 2/3 and under
// embedding distance for tier 1; `distances` are always the exact metric
// distances of those candidates to the query, so callers can compare
// responses across tiers. Never more than min(k, database size) entries.
struct QueryResult {
  std::vector<size_t> indices;
  std::vector<double> distances;
  ServeTier tier = ServeTier::kEmbeddingAnn;
  // True when the answering tier could not consult all of its live data:
  // a kSegmented response over an index with a quarantined or over-budget
  // segment or a stale id (docs/INDEXING.md), or a kExactBruteForce scan
  // truncated at ServerConfig::max_brute_force. The result is then a
  // correct top-k of what was searched — a lower bound, not an error.
  bool partial = false;
};

}  // namespace tmn::serve

#endif  // TMN_SERVE_SERVE_TYPES_H_
