#ifndef AUJOIN_JOIN_SEARCH_H_
#define AUJOIN_JOIN_SEARCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/usim.h"
#include "index/prepared_index.h"
#include "join/signature.h"

namespace aujoin {

/// Serving statistics, accumulated into the caller's struct by the
/// searcher, SearchSlices and every Engine Search/TopK/BatchSearch call.
struct SearchStats {
  uint64_t queries = 0;
  /// Candidate records that survived the signature filter (verified).
  uint64_t query_candidates = 0;
  /// Of those, candidates rejected from the USIM upper bound alone (no
  /// pair graph built; see core/usim.h).
  uint64_t bound_rejected = 0;
  /// Matches returned to the caller. On the engine's streaming
  /// overloads (sink or callback) this counts matches actually emitted
  /// — a consumer that stops early caps it, including the match it
  /// declined.
  uint64_t results = 0;
  /// The one-time index work the call paid across the slices it
  /// searched, in every serving mode: lazy prepares (the monolithic
  /// index, each shard's, append mode's staging generation), snapshot
  /// mounts of lazily loaded shards, and CSR serving-index freezes.
  /// Concurrent calls charge each piece once, to the call that did it;
  /// 0 once everything is resident.
  double index_seconds = 0.0;
  /// Wall seconds of the whole engine call, including any index build.
  double search_seconds = 0.0;
  /// Shards the query scattered across (EngineOptions::num_shards);
  /// zero on the monolithic and append serving paths.
  uint64_t shards = 0;
};

/// Online unified similarity *search*: index a collection once, then
/// answer "which records are similar to this query?" requests. The
/// collection side is indexed with its records' full pebble key sets, so
/// only the query needs a signature: if USIM(q, r) >= theta, every shared
/// key is either in the query's signature prefix (then r is a candidate
/// via the index) or in the query's tail, whose total possible
/// contribution is below theta * MP(q) by the signature boundary — the
/// single-sided version of Lemmas 1-2.
///
/// The searcher is a read-only view over a shared immutable
/// PreparedIndex (the T side is what gets probed): Search/TopK are
/// const and safe to call from any number of threads concurrently on
/// one searcher — scratch state is per query or per thread (the
/// candidate count-merge accumulator is thread_local, reused across a
/// thread's queries without clearing). Many searchers and join
/// contexts can borrow the same index.
class UnifiedSearcher {
 public:
  /// Serves the prepared index's T side (== S for a self-join world).
  explicit UnifiedSearcher(std::shared_ptr<const PreparedIndex> index)
      : knowledge_(index->knowledge()),
        msim_(index->msim_options()),
        index_(std::move(index)) {}

  /// Two-step construction: remember the world, then Index() a
  /// collection (builds a private PreparedIndex).
  UnifiedSearcher(const Knowledge& knowledge, const MsimOptions& msim)
      : knowledge_(knowledge), msim_(msim) {}

  /// Indexes the collection (the pointer must stay valid while
  /// searching). Replaces any previously adopted index.
  void Index(const std::vector<Record>* collection);

  struct Match {
    uint32_t id = 0;
    double similarity = 0.0;

    friend bool operator==(const Match& a, const Match& b) {
      return a.id == b.id && a.similarity == b.similarity;
    }
  };

  struct SearchOptions {
    double theta = 0.8;
    /// Overlap constraint on the query signature (subject to the query's
    /// effective tau).
    int tau = 1;
    FilterMethod method = FilterMethod::kAuDp;
  };

  /// All indexed records with Approx USIM >= theta, sorted by descending
  /// similarity, ties by ascending id. An empty (zero-token) query
  /// matches nothing. Thread-safe.
  std::vector<Match> Search(const Record& query, const SearchOptions& options,
                            SearchStats* stats = nullptr) const;

  /// The k most similar records with similarity >= min_theta, under the
  /// same total order as Search (similarity desc, id asc) — ties at the
  /// cut are resolved toward lower ids, so results are deterministic
  /// and byte-identical to Search's k-prefix. Internally a bounded
  /// partial sort: k << matches never pays a full sort of the match
  /// set. k = 0 returns nothing; min_theta = 1.0 keeps only
  /// exact-similarity matches. Thread-safe.
  std::vector<Match> TopK(const Record& query, size_t k, double min_theta,
                          const SearchOptions& options,
                          SearchStats* stats = nullptr) const;

  size_t num_indexed() const {
    return index_ == nullptr ? 0 : index_->t_records().size();
  }

  const std::shared_ptr<const PreparedIndex>& index() const {
    return index_;
  }

 private:
  std::vector<uint32_t> Candidates(const Record& query,
                                   const SearchOptions& options) const;

  /// Shared Search/TopK core: candidates (CSR count-merge probe) plus
  /// Algorithm 1 verification, returned unsorted so each caller can
  /// apply the cheapest ordering (full sort vs bounded partial sort).
  std::vector<Match> VerifyCandidates(const Record& query,
                                      const SearchOptions& options,
                                      SearchStats* stats) const;

  Knowledge knowledge_;
  MsimOptions msim_;
  std::shared_ptr<const PreparedIndex> index_;
};

/// One slice of a served collection: a shared PreparedIndex whose T
/// side holds local ids 0..n-1, plus the map from local to global ids.
/// Every serving mode is a set of slices — the monolithic engine's one
/// index, N shards, or append mode's frozen + staging generations — and
/// SearchSlices below is the one scatter-gather over them.
struct SearchSlice {
  /// Must keep alive whatever the index borrows (an aliasing shared_ptr
  /// can tie a generation's records to it).
  std::shared_ptr<const PreparedIndex> index;
  /// When set, local id i is global (*global_ids)[i]: an ascending list
  /// owned by whoever pinned the slice (a hash shard's members).
  const std::vector<uint32_t>* global_ids = nullptr;
  /// Otherwise local id i is global offset + i.
  uint32_t offset = 0;

  uint32_t GlobalId(uint32_t local) const {
    return global_ids != nullptr ? (*global_ids)[local] : offset + local;
  }
};

/// Scatters `query` to every slice and merges the global-id matches
/// under the serving order (similarity desc, id asc): the same result,
/// similarities included, as one UnifiedSearcher over the union of the
/// slices, because the signature filter is lossless per record pair and
/// similarity is intrinsic to the (query, record) pair. k = 0 returns
/// every match >= options.theta; k > 0 the k best of them (each slice
/// cuts its own TopK at k, as the global k best lie within the union of
/// those lists, and the merge cuts again). Slices are searched in
/// parallel over `num_threads` (ResolveThreads semantics; pass 1 when
/// the caller already parallelises). The query counts once in `stats`,
/// whose index_seconds gains the one-time CSR-freeze seconds this call
/// paid across the slices. Thread-safe.
std::vector<UnifiedSearcher::Match> SearchSlices(
    const std::vector<SearchSlice>& slices, const Record& query, size_t k,
    const UnifiedSearcher::SearchOptions& options, int num_threads,
    SearchStats* stats = nullptr);

}  // namespace aujoin

#endif  // AUJOIN_JOIN_SEARCH_H_
