#include "core/fold_run.hpp"

#include <algorithm>
#include <cassert>

#include "storage/btree.hpp"

namespace paralagg::core {

FoldRun::FoldRun(std::size_t arity, std::size_t key_arity, const RecursiveAggregator* agg,
                 bool folds)
    : arity_(arity), key_arity_(key_arity), agg_(agg), folds_(folds) {
  assert((key_arity_ == arity_ || agg_ != nullptr) && "aggregated rows need an aggregator");
}

std::size_t FoldRun::append(std::span<const value_t> rows) {
  assert(rows.size() % arity_ == 0 && "ragged row batch");
  if (!folds_) {
    rows_.insert(rows_.end(), rows.begin(), rows.end());
    return 0;
  }
  std::size_t collapsed = 0;
  while (!rows.empty()) {
    const std::size_t take = std::min(rows.size(), fold_at_ * arity_ - rows_.size());
    rows_.insert(rows_.end(), rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(take));
    rows = rows.subspan(take);
    if (rows_.size() == fold_at_ * arity_) collapsed += fold();
  }
  return collapsed;
}

void FoldRun::absorb(std::span<value_t> last, std::span<const value_t> row) {
  if (key_arity_ == arity_) return;  // a plain row's duplicate
  // partial_agg's out may alias neither input: fold through scratch.
  dep_scratch_.resize(arity_ - key_arity_);
  const auto acc = last.subspan(key_arity_);
  agg_->partial_agg(acc, row.subspan(key_arity_), dep_scratch_);
  std::copy(dep_scratch_.begin(), dep_scratch_.end(), acc.begin());
}

std::size_t FoldRun::fold() {
  const std::size_t ar = arity_;
  const std::size_t ka = key_arity_;
  const std::size_t run_end = run_rows_ * ar;
  if (!folds_ || rows_.size() == run_end) return 0;
  const std::size_t before = rows_.size() / ar;
  thread_local std::vector<value_t> sort_scratch;
  // Only the rows appended since the last fold need sorting.
  const std::span<value_t> tail = std::span<value_t>(rows_).subspan(run_end);
  storage::sort_rows(tail, ar, ka, sort_scratch);
  value_t* const base = rows_.data();
  std::size_t lo = 0;  // the folded rows end up in [lo, rows_.size())
  if (run_end == 0) {
    // No run yet: collapse the sorted rows in place, front to back.
    std::size_t w = 0;
    for (std::size_t off = 0; off < rows_.size(); off += ar) {
      if (w > 0 && storage::compare_prefix({base + w - ar, ar}, {base + off, ar}, ka) == 0) {
        absorb({base + w - ar, ar}, {base + off, ar});
        continue;
      }
      if (w != off) std::copy_n(base + off, ar, base + w);
      w += ar;
    }
    rows_.resize(w);
  } else {
    // Merge the run and a copy of the sorted tail back to front, writing
    // from the buffer's end: the write cursor never falls below the run
    // rows still unread, so the merge needs no second output buffer.
    sort_scratch.assign(tail.begin(), tail.end());
    const value_t* const fresh = sort_scratch.data();
    std::size_t i = run_end;
    std::size_t j = sort_scratch.size();
    std::size_t w = rows_.size();
    while (i > 0 || j > 0) {
      const value_t* src;
      if (j == 0 || (i > 0 && storage::compare_prefix({base + i - ar, ar},
                                                      {fresh + j - ar, ar}, ka) > 0)) {
        i -= ar;
        src = base + i;
      } else {
        j -= ar;
        src = fresh + j;
      }
      if (w < rows_.size() && storage::compare_prefix({base + w, ar}, {src, ar}, ka) == 0) {
        absorb({base + w, ar}, {src, ar});
        continue;
      }
      w -= ar;
      if (base + w != src) std::copy_n(src, ar, base + w);
    }
    lo = w;
  }
  if (lo > 0) {
    std::copy(rows_.begin() + static_cast<std::ptrdiff_t>(lo), rows_.end(), rows_.begin());
    rows_.resize(rows_.size() - lo);
  }
  // The thread keeps a floor-sized fold's scratch warm; a larger one (a
  // fact load, a first iteration's burst) goes back rather than pinning
  // its peak for the thread's lifetime.
  if (sort_scratch.capacity() > kFoldFloor * ar) std::vector<value_t>().swap(sort_scratch);
  run_rows_ = rows_.size() / ar;
  fold_at_ = std::max(kFoldFloor, 2 * run_rows_);
  return before - run_rows_;
}

void FoldRun::clear() {
  rows_.clear();
  run_rows_ = 0;
  fold_at_ = kFoldFloor;
}

void FoldRun::release() {
  clear();
  std::vector<value_t>().swap(rows_);
}

}  // namespace paralagg::core
