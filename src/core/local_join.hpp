#pragma once

// The rank-local join kernel: the one place a join probes a B-tree.
//
// The paper's iteration has one local-join step (Fig. 1): B-tree probes of
// the shipped outer rows.  Every engine runs it here — BSP `execute_join`,
// the async delta loop and its PROBE frames, SSP scans and probe frames,
// and serving's retraction, recovery and insert passes.  A LocalJoin binds
// one JoinRule to the inner side's tree and takes probe rows one at a time:
//
//   * One monotone cursor (storage/btree.hpp) serves the whole pass.  A
//     run of probe rows with equal join keys seeks once, records the match
//     range, and replays it for the rest of the run without comparisons,
//     so key-sorted input — a sorted batch, a tree scan, a frame of
//     concatenated scans — costs one seek per distinct key, and most seeks
//     resume from the current leaf.  Input out of key order stays correct:
//     a seek behind the cursor pays a fresh descent.
//   * `filter` runs per pair.  An antijoin emits a probe row that has no
//     surviving match; its `pre_filter` runs first, and a run whose rows
//     it all rejects never seeks.
//   * The head is evaluated once per emitted pair and handed to the
//     caller's sink, a template parameter, so no std::function enters the
//     loop (DESIGN.md §5.1).  Copy rules share the head evaluation
//     (copy_row).
//
// The kernel counts probes, seeks and matches.  Emission order follows
// probe order; every sink in the engines is order-insensitive (router and
// async staging, SSP folds, serving's owner-side checks; DESIGN.md §6.1),
// so the order probes arrive in never changes a fixpoint.

#include <span>
#include <vector>

#include "core/ra_op.hpp"
#include "storage/btree.hpp"

namespace paralagg::core {

/// Evaluate `out`'s head over the pair (a, b) into `scratch` and return
/// the row (side b is empty for copy rules and antijoins).
inline std::span<const value_t> eval_head(const OutputSpec& out, std::span<const value_t> a,
                                          std::span<const value_t> b, Tuple& scratch) {
  scratch.clear();
  scratch.reserve(out.cols.size());
  for (const auto& e : out.cols) scratch.push_back(e.eval(a, b));
  return scratch.view();
}

/// One copy-rule step: when `row` passes `rule.filter`, hand the head over
/// it to `sink`.  Returns whether it emitted.
template <typename Sink>
bool copy_row(const CopyRule& rule, std::span<const value_t> row, Tuple& scratch,
              Sink&& sink) {
  if (rule.filter && rule.filter->eval(row, {}) == 0) return false;
  sink(eval_head(rule.out, row, {}, scratch));
  return true;
}

class LocalJoin {
 public:
  /// Probe rows are side-A rows of `rule` when `probe_is_a` (always, for
  /// an antijoin), else side-B rows; `inner` is the other side's tree, in
  /// whatever version the caller joins against.  The tree must not change
  /// while the kernel lives (the cursor would dangle).
  LocalJoin(const JoinRule& rule, const storage::TupleBTree& inner, bool probe_is_a);

  /// Join one probe row and hand each head row to `sink`, which receives
  /// std::span<const value_t>.
  template <typename Sink>
  void probe(std::span<const value_t> row, Sink&& sink);

  /// probe() every row of flat row-major `rows` (`arity` columns each).
  template <typename Sink>
  void probe_all(std::span<const value_t> rows, std::size_t arity, Sink&& sink) {
    for (std::size_t off = 0; off < rows.size(); off += arity) {
      probe(rows.subspan(off, arity), sink);
    }
  }

  /// probes, probe_seeks and matches of this pass.
  [[nodiscard]] const JoinKernelTotals& counts() const { return counts_; }

 private:
  /// Start a new run unless `key` continues the current one.  A new run
  /// seeks only when a row needs its range.
  void enter_run(std::span<const value_t> key) {
    if (!run_key_.empty() && storage::compare_prefix(key, run_key_, jcc_) == 0) return;
    run_key_.assign(key.begin(), key.end());
    sought_ = false;
  }
  /// Position the cursor at the start of the run's match range, seeking
  /// it first if no row of the run has needed it yet.
  void rewind() {
    if (!sought_) seek_run();
    cursor_.restore(begin_);
  }
  void seek_run();

  const JoinRule* rule_;
  bool probe_is_a_;
  std::size_t jcc_;
  storage::TupleBTree::Cursor cursor_;
  std::vector<value_t> run_key_;  // join key of the current run (empty: none yet)
  bool sought_ = false;
  storage::TupleBTree::Cursor::Position begin_{};
  std::size_t nmatch_ = 0;  // rows in the run's match range
  Tuple head_;
  JoinKernelTotals counts_;
};

template <typename Sink>
void LocalJoin::probe(std::span<const value_t> row, Sink&& sink) {
  ++counts_.probes;
  enter_run(row.first(jcc_));
  const JoinRule& r = *rule_;
  if (r.anti) {
    if (r.pre_filter && r.pre_filter->eval(row, {}) == 0) return;
    rewind();
    for (std::size_t m = 0; m < nmatch_; ++m, cursor_.next()) {
      if (!r.filter || r.filter->eval(row, cursor_.row()) != 0) return;  // a match blocks
    }
    ++counts_.matches;
    sink(eval_head(r.out, row, {}, head_));
    return;
  }
  rewind();
  for (std::size_t m = 0; m < nmatch_; ++m, cursor_.next()) {
    const auto inner = cursor_.row();
    const auto a = probe_is_a_ ? row : inner;
    const auto b = probe_is_a_ ? inner : row;
    if (r.filter && r.filter->eval(a, b) == 0) continue;
    ++counts_.matches;
    sink(eval_head(r.out, a, b, head_));
  }
}

}  // namespace paralagg::core
