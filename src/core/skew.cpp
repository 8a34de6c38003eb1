#include "core/skew.hpp"

#include <algorithm>
#include <unordered_map>

#include "vmpi/serialize.hpp"

namespace paralagg::core {

namespace {

/// (count desc, key asc) — the total order both the per-rank nomination
/// and the global fold sort by.  Key ascending breaks count ties, so the
/// truncation point is deterministic.
bool hotter(const HotCandidate& a, const HotCandidate& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

}  // namespace

std::vector<Tuple> fold_hot_candidates(const std::vector<HotCandidate>& candidates,
                                       const SkewConfig& cfg) {
  std::unordered_map<Tuple, std::uint64_t, storage::TupleHash> totals;
  totals.reserve(candidates.size());
  for (const auto& [key, count] : candidates) totals[key] += count;

  std::vector<HotCandidate> hot;
  for (auto& [key, count] : totals) {
    if (count >= cfg.hot_threshold) hot.emplace_back(key, count);
  }
  std::sort(hot.begin(), hot.end(), hotter);
  if (hot.size() > cfg.max_hot_keys) hot.resize(cfg.max_hot_keys);

  std::vector<Tuple> keys;
  keys.reserve(hot.size());
  for (auto& [key, count] : hot) keys.push_back(std::move(key));
  return keys;
}

std::vector<Tuple> detect_hot_keys(vmpi::Comm& comm, const Relation& rel,
                                   const SkewConfig& cfg) {
  // 1. Local delta histogram by join-key prefix.
  std::unordered_map<Tuple, std::uint64_t, storage::TupleHash> local;
  rel.tree(Version::kDelta).for_each([&](std::span<const value_t> t) {
    ++local[Tuple(t.subspan(0, rel.jcc()))];
  });

  // 2. Nominate this rank's top candidates.
  std::vector<HotCandidate> mine;
  mine.reserve(local.size());
  for (auto& [key, count] : local) mine.emplace_back(key, count);
  std::sort(mine.begin(), mine.end(), hotter);
  if (mine.size() > cfg.max_candidates_per_rank) mine.resize(cfg.max_candidates_per_rank);

  // 3. One allgatherv of (count, key-columns) records.  vmpi returns the
  // buffers rank-ordered and byte-identical on every rank.
  vmpi::BufferWriter w;
  for (const auto& [key, count] : mine) {
    w.put<value_t>(count);
    w.put_span(key.view());
  }
  const auto gathered = comm.allgatherv(w.take());

  // 4. Identical fold on identical input -> identical hot set everywhere.
  std::vector<HotCandidate> all;
  for (const auto& buf : gathered) {
    vmpi::TypedReader<value_t> r(buf);
    while (!r.done()) {
      const std::uint64_t count = r.get();
      all.emplace_back(Tuple(r.take_span(rel.jcc())), count);
    }
  }
  return fold_hot_candidates(all, cfg);
}

}  // namespace paralagg::core
