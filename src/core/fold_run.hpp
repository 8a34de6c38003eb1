#pragma once

// A flat row buffer that folds itself into a *run*: key-sorted, key-unique
// rows.  Relation staging and every ExchangeRouter bucket are FoldRuns, so
// rows are pre-aggregated by one mechanism whether they wait for
// materialize() or for the wire (DESIGN.md §6).
//
// Rows are appended after the run.  A fold sorts only the rows appended
// since the last fold, merges them into the run, and collapses equal keys:
// aggregated rows (key_arity < arity) through the aggregator's partial_agg,
// plain rows (key_arity == arity) by dropping the duplicate.  Appends fold
// in place once the buffer holds max(kFoldFloor, 2 × run) rows, so a
// FoldRun never holds much more than twice its distinct keys (plus the
// floor).  The merge runs backwards inside the buffer, so the only scratch
// is the radix sort's: one buffer per thread (ranks are threads), kept
// across folds up to a floor-sized fold's need.  One per run multiplied
// retained memory over every relation and bucket.

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "core/aggregator.hpp"
#include "core/types.hpp"

namespace paralagg::core {

class FoldRun {
 public:
  /// Rows below which appends never fold; small batches sort once.
  static constexpr std::size_t kFoldFloor = 4096;

  /// `agg` folds equal keys when key_arity < arity (required then).  With
  /// `folds` false the buffer only appends: rows keep arrival order and
  /// fold() does nothing.
  FoldRun(std::size_t arity, std::size_t key_arity, const RecursiveAggregator* agg,
          bool folds = true);

  /// Append flat rows (a multiple of arity), folding in place whenever the
  /// buffer reaches the fold point.  Returns the rows those folds collapsed.
  std::size_t append(std::span<const value_t> rows);

  /// Fold every row appended since the last fold into the run.  Returns
  /// the rows collapsed.
  std::size_t fold();

  /// Drop every row of a folded run for which `drop(row)` holds, keeping
  /// key order.  Only right after fold().  Returns the rows dropped.
  template <typename Drop>
  std::size_t drop_if(Drop&& drop) {
    assert(rows_.size() == run_rows_ * arity_ && "drop_if needs a folded run");
    std::size_t w = 0;
    for (std::size_t off = 0; off < rows_.size(); off += arity_) {
      if (drop(std::span<const value_t>(rows_.data() + off, arity_))) continue;
      if (w != off) std::copy_n(rows_.data() + off, arity_, rows_.data() + w);
      w += arity_;
    }
    const std::size_t dropped = run_rows_ - w / arity_;
    rows_.resize(w);
    run_rows_ = w / arity_;
    return dropped;
  }

  /// The buffered rows: a run right after fold() (when folding).
  [[nodiscard]] std::span<const value_t> values() const { return rows_; }
  [[nodiscard]] std::size_t row_count() const { return rows_.size() / arity_; }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  /// Values the buffer can hold without reallocating.
  [[nodiscard]] std::size_t capacity() const { return rows_.capacity(); }

  /// Drop every row, keeping capacity.
  void clear();
  /// Drop every row and return the memory.
  void release();

 private:
  void absorb(std::span<value_t> last, std::span<const value_t> row);

  std::size_t arity_;
  std::size_t key_arity_;
  const RecursiveAggregator* agg_;
  bool folds_;
  // rows_ is [run | rows appended since]; run_rows_ counts the run.
  std::vector<value_t> rows_;
  std::size_t run_rows_ = 0;
  std::size_t fold_at_ = kFoldFloor;
  std::vector<value_t> dep_scratch_;
};

}  // namespace paralagg::core
