#include "join/search.h"

#include <algorithm>
#include <utility>

#include "index/csr_index.h"
#include "util/parallel.h"

namespace aujoin {
namespace {

/// The one total order of search results: similarity desc, id asc.
bool BetterMatch(const UnifiedSearcher::Match& a,
                 const UnifiedSearcher::Match& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

/// Sorts `matches` into the serving order, keeping only the first k
/// when k > 0. A bounded partial sort for k << matches: BetterMatch is
/// a strict total order (ids are distinct), so the k-prefix of a
/// partial sort is byte-identical to the k-prefix of the full sort,
/// including tie-breaks at the cut boundary.
void RankMatches(size_t k, std::vector<UnifiedSearcher::Match>* matches) {
  if (k > 0 && matches->size() > k) {
    std::partial_sort(matches->begin(),
                      matches->begin() + static_cast<ptrdiff_t>(k),
                      matches->end(), BetterMatch);
    matches->resize(k);
  } else {
    std::sort(matches->begin(), matches->end(), BetterMatch);
  }
}

}  // namespace

void UnifiedSearcher::Index(const std::vector<Record>* collection) {
  index_ = PreparedIndex::Build(knowledge_, msim_, *collection, nullptr);
}

std::vector<uint32_t> UnifiedSearcher::Candidates(
    const Record& query, const SearchOptions& options) const {
  RecordPebbles rp = index_->GenerateQueryPebbles(query);
  SignatureOptions sig_options;
  sig_options.theta = options.theta;
  sig_options.tau = options.tau;
  sig_options.method = options.method;
  Signature sig = SelectSignature(rp, query.num_tokens(), sig_options);

  // Count-based merge over the frozen CSR serving index. The scratch is
  // thread_local — sized once per thread to the collection, epoch-stamped
  // so each query starts in O(1) — which is what makes Search const and
  // concurrency-safe while still allocation-free on the hot path (a
  // batch worker reuses one accumulator across its whole query slice).
  // Deliberate trade-off: the arrays only grow (~8 bytes per indexed
  // record per serving thread) and live until the thread exits, even if
  // the index is dropped — acceptable for pooled serving threads, and
  // the join path's scoped per-worker accumulators show the bounded
  // alternative if a caller ever needs one.
  const CsrIndex& serving = index_->ServingIndex();
  thread_local CandidateAccumulator overlap;
  overlap.Begin(index_->t_prepared().size());
  // Resolve the whole signature's keys in one batched sweep (hashes
  // pipelined, home slots prefetched) before merging the runs.
  const CsrIndex::Postings* runs =
      overlap.ResolveRuns(serving, sig.keys.data(), sig.keys.size());
  for (size_t k = 0; k < sig.keys.size(); ++k) {
    overlap.BumpRun(runs[k].data, runs[k].size);
  }
  // Query signatures carry one uniform effective tau, so the survivor
  // scan is the flat count >= threshold select.
  CandidateAccumulator::IdSpan kept =
      overlap.SelectGE(static_cast<uint32_t>(sig.effective_tau));
  std::vector<uint32_t> out(kept.begin(), kept.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<UnifiedSearcher::Match> UnifiedSearcher::VerifyCandidates(
    const Record& query, const SearchOptions& options,
    SearchStats* stats) const {
  std::vector<Match> matches;
  if (index_ == nullptr) return matches;
  if (stats != nullptr) ++stats->queries;
  // An empty query has no segments, hence no pebbles and USIM 0 against
  // everything; return before signature selection sees a zero-token
  // record.
  if (query.num_tokens() == 0) return matches;
  // Per-query scratch state only from here on: one UsimComputer (whose
  // gram cache is not thread-safe).
  UsimOptions usim_options;
  usim_options.msim = msim_;
  UsimComputer computer(knowledge_, usim_options);
  const std::vector<Record>& collection = index_->t_records();
  std::vector<uint32_t> candidates = Candidates(query, options);
  if (stats != nullptr) stats->query_candidates += candidates.size();
  for (uint32_t id : candidates) {
    // Serving reports similarities: reject below theta from the bound,
    // score every other candidate with the full Algorithm 1 value.
    double sim = computer.Approx(query, collection[id],
                                 UsimComputer::kNoEarlyExit, options.theta);
    if (sim >= options.theta) matches.push_back(Match{id, sim});
  }
  if (stats != nullptr) stats->bound_rejected += computer.bound_rejected();
  return matches;
}

std::vector<UnifiedSearcher::Match> UnifiedSearcher::Search(
    const Record& query, const SearchOptions& options,
    SearchStats* stats) const {
  std::vector<Match> matches = VerifyCandidates(query, options, stats);
  RankMatches(0, &matches);
  return matches;
}

std::vector<UnifiedSearcher::Match> UnifiedSearcher::TopK(
    const Record& query, size_t k, double min_theta,
    const SearchOptions& options, SearchStats* stats) const {
  if (k == 0) {
    // Still a query: count it, answer nothing.
    if (stats != nullptr) ++stats->queries;
    return {};
  }
  SearchOptions opts = options;
  opts.theta = min_theta;
  std::vector<Match> matches = VerifyCandidates(query, opts, stats);
  RankMatches(k, &matches);
  return matches;
}

std::vector<UnifiedSearcher::Match> SearchSlices(
    const std::vector<SearchSlice>& slices, const Record& query, size_t k,
    const UnifiedSearcher::SearchOptions& options, int num_threads,
    SearchStats* stats) {
  using Match = UnifiedSearcher::Match;
  const size_t n = slices.size();
  std::vector<std::vector<Match>> per_slice(n);
  std::vector<SearchStats> slice_stats(n);
  ParallelFor(n, num_threads, [&](size_t begin, size_t end, int) {
    for (size_t s = begin; s < end; ++s) {
      const SearchSlice& slice = slices[s];
      // Freeze the slice's CSR here, in the (possibly parallel) scatter,
      // so its one-time cost is timed and charged to the call that paid
      // it; ServingIndex assigns its out-parameter, hence the slot.
      slice.index->ServingIndex(&slice_stats[s].index_seconds);
      UnifiedSearcher searcher(slice.index);
      std::vector<Match> matches =
          k > 0 ? searcher.TopK(query, k, options.theta, options,
                                &slice_stats[s])
                : searcher.Search(query, options, &slice_stats[s]);
      for (Match& m : matches) m.id = slice.GlobalId(m.id);
      per_slice[s] = std::move(matches);
    }
  });
  if (stats != nullptr) {
    ++stats->queries;
    for (const SearchStats& slice : slice_stats) {
      stats->query_candidates += slice.query_candidates;
      stats->bound_rejected += slice.bound_rejected;
      stats->index_seconds += slice.index_seconds;
    }
  }
  // Local-to-global maps are ascending, so one slice's list is already
  // in serving order; several are concatenated and re-ranked.
  if (n == 1) return std::move(per_slice[0]);
  size_t total = 0;
  for (const std::vector<Match>& matches : per_slice) total += matches.size();
  std::vector<Match> merged;
  merged.reserve(total);
  for (const std::vector<Match>& matches : per_slice) {
    merged.insert(merged.end(), matches.begin(), matches.end());
  }
  RankMatches(k, &merged);
  return merged;
}

}  // namespace aujoin
