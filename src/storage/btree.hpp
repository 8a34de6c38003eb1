#pragma once

// B+-tree tuple storage.
//
// PARALAGG stores each relation's local partition "using a nested BTree
// data structure" (paper §IV-D): the inner side of a join stays put in its
// tree and is probed with O(log n) prefix lookups, while the outer side is
// serialized and shipped.  This is that tree: keys are the leading
// `key_arity` columns of each tuple, at most one tuple is stored per
// distinct key, and range scans over a shorter prefix enumerate all tuples
// matching a join key.
//
// Storage layout: each leaf holds its rows as one flat, row-major
// value_t array (no per-row Tuple objects, no per-row heap spill), so a
// range scan is a contiguous sweep.  Rows are exposed as spans into the
// leaf; any mutation of the tree (insert/clear/move) invalidates them.
//
// Probing goes through `Cursor`, an allocation-free iterator with a
// *monotone* seek: a seek to a key at or beyond the current position
// resumes from the current leaf via the leaf chain and only re-descends
// from the root when the target lies further ahead (or behind — a
// non-monotone seek is legal, it just pays the descent).  The sorted-batch
// join kernel in core/ra_op.cpp exploits this: probes arrive sorted by
// join key, so most seeks touch only the current leaf.  `scan_prefix` and
// `for_each` are thin templated wrappers over the cursor — no
// `std::function` (and no virtual dispatch) anywhere in the scan loop.
//
// Bulk changes go through sorted runs instead of per-row inserts:
// `assign_sorted` builds a tree bottom-up from key-sorted rows, and
// `merge_sorted` merges a key-sorted run in one pass over the leaf chain
// and rebuilds — the insert-side twin of the monotone cursor.
//
// The tree also keeps a key-comparison counter which the benchmark harness
// uses for modelled scaling: the paper's Fig. 5 analysis attributes
// low-core-count cost to B-tree operations, and the counter makes that
// attribution reproducible (`bench/probe_kernel` reports
// comparisons-per-probe from it).

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/tuple.hpp"

namespace paralagg::storage {

/// Sort flat row-major rows (`arity` columns each) by their first
/// `key_arity` columns.  Rows with equal keys end up adjacent, in no
/// particular order among themselves.
void sort_rows(std::vector<value_t>& rows, std::size_t arity, std::size_t key_arity);

class TupleBTree {
 public:
  /// Rows per leaf and children per inner node, at most.
  static constexpr std::size_t kLeafCap = 32;
  static constexpr std::size_t kInnerCap = 32;

  /// Tuples have `arity` columns; the first `key_arity` are the key.
  /// Plain relations use key_arity == arity (set semantics over whole
  /// tuples); aggregated relations use key_arity == number of independent
  /// columns, with dependent columns carried as the payload.
  TupleBTree(std::size_t arity, std::size_t key_arity);
  ~TupleBTree();

  TupleBTree(TupleBTree&&) noexcept;
  TupleBTree& operator=(TupleBTree&&) noexcept;
  TupleBTree(const TupleBTree&) = delete;
  TupleBTree& operator=(const TupleBTree&) = delete;

  [[nodiscard]] std::size_t arity() const { return arity_; }
  [[nodiscard]] std::size_t key_arity() const { return key_arity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Insert `row` (exactly `arity` values, stored order) if its key is
  /// absent.  Returns true if inserted, false if a tuple with the same key
  /// already exists (the stored tuple is untouched).
  bool insert(std::span<const value_t> row);
  bool insert(const Tuple& t) { return insert(t.view()); }

  /// View of the stored row for `key` (exactly key_arity columns), or an
  /// empty span.  Callers may rewrite payload columns in place through the
  /// mutable overload — this is how fused aggregation collapses a stored
  /// accumulator — but must never modify key columns.  The span points
  /// into leaf storage: any insert/clear invalidates it.
  [[nodiscard]] std::span<value_t> find_key(std::span<const value_t> key);
  [[nodiscard]] std::span<const value_t> find_key(std::span<const value_t> key) const;

  [[nodiscard]] bool contains_key(std::span<const value_t> key) const {
    return !find_key(key).empty();
  }

  /// Remove the stored row whose key equals `key` (exactly key_arity
  /// columns).  Returns true iff a row was removed.  Erase never
  /// restructures the tree: a leaf may go empty but stays in the chain,
  /// and separators are left stale — both are safe, because a separator
  /// remains a lower bound of everything at or right of its child and
  /// every traversal (find_key, Cursor, scan_prefix) already walks the
  /// chain past exhausted leaves.  Like insert, it invalidates cursors.
  bool erase_key(std::span<const value_t> key);

  void clear();

  /// Replace the contents with `rows`: flat row-major rows whose keys
  /// strictly increase (and which do not point into this tree).  Builds
  /// bottom-up, without key comparisons: leaves are packed with up to
  /// kLeafCap rows, spread evenly, and each inner level is cut the same
  /// way.  Invalidates cursors.
  void assign_sorted(std::span<const value_t> rows);

  /// Merge `run` — flat rows whose keys strictly increase — into the tree
  /// in one pass over the leaf chain, then rebuild it with assign_sorted.
  /// A leaf whose last key lies below the next run key is copied whole on
  /// one comparison, so placing the run costs two comparisons per run
  /// row, one per leaf, and one per stored row passed inside a leaf a run
  /// row lands in — never a root descent per row.  Run rows
  /// with an absent key are inserted.  For a key on both sides,
  /// `fold(stored, incoming)` may rewrite the payload columns of `stored`
  /// (the merged copy of the tree's row; its key columns must stay) and
  /// returns whether it did.  Inserted and rewritten rows are appended to
  /// `changed` in key order.  Every key comparison goes to comparisons().
  template <typename Fold>
  void merge_sorted(std::span<const value_t> run, std::vector<value_t>& changed, Fold&& fold);

 private:
  struct Node {
    bool is_leaf;
    explicit Node(bool leaf) : is_leaf(leaf) {}
    virtual ~Node() = default;
  };

  struct Leaf final : Node {
    Leaf() : Node(true) {}
    std::vector<value_t> vals;  // nrows * arity values, row-major, key-sorted
    Leaf* next = nullptr;       // leaf chain for range scans
  };

  struct Inner final : Node {
    Inner() : Node(false) {}
    // children.size() == seps.size() + 1; seps[i] is the minimum key of
    // children[i + 1] (key_arity columns only).
    std::vector<Tuple> seps;
    std::vector<std::unique_ptr<Node>> children;
  };

  [[nodiscard]] std::size_t leaf_rows(const Leaf& l) const {
    return l.vals.size() / arity_;
  }
  [[nodiscard]] std::span<const value_t> leaf_row(const Leaf& l, std::size_t i) const {
    return {l.vals.data() + i * arity_, arity_};
  }

 public:
  // -- cursor -----------------------------------------------------------------

  /// Allocation-free iterator over the stored rows in key order.  A cursor
  /// is bound to a fixed tree state: any mutation of the tree invalidates
  /// it (and every Position taken from it).
  ///
  /// `seek(prefix)` positions the cursor at the lower bound of `prefix`
  /// (the first row whose leading prefix.size() key columns compare >=
  /// prefix), and is *monotone*: when the target is at or beyond the
  /// current row, the cursor resumes from the current leaf and walks the
  /// leaf chain, re-descending from the root only when the target lies
  /// more than a few leaves ahead.  Seeking below the current position is
  /// detected (one comparison) and falls back to a fresh descent, so any
  /// seek order is correct — monotone order is just cheaper.
  ///
  /// Note the resumed lower bound is relative to the current position: if
  /// next() already advanced past rows equal to `prefix`, a re-seek of the
  /// same prefix stays put rather than rewinding.  Batch kernels that
  /// replay a match range use position()/restore() instead.
  class Cursor {
   public:
    explicit Cursor(const TupleBTree& tree) : tree_(&tree) {}

    /// Opaque bookmark of a valid row; restore() rewinds to it.  Only
    /// meaningful against the same unmodified tree.
    struct Position {
      const Leaf* leaf = nullptr;
      std::size_t idx = 0;
    };

    /// Position at the first row in key order (end if the tree is empty).
    void seek_first();

    /// Position at the lower bound of `prefix` (prefix.size() columns,
    /// must be <= key_arity).  See the class comment for monotonicity.
    void seek(std::span<const value_t> prefix);

    [[nodiscard]] bool valid() const { return leaf_ != nullptr; }

    /// The current row (full arity).  Only when valid().
    [[nodiscard]] std::span<const value_t> row() const {
      return tree_->leaf_row(*leaf_, idx_);
    }

    /// Does the current row's leading prefix.size() columns equal
    /// `prefix`?  Counted as one key comparison.  Only when valid().
    [[nodiscard]] bool matches(std::span<const value_t> prefix) const {
      return tree_->cmp_key(row(), prefix, prefix.size()) == 0;
    }

    /// Advance to the next row in key order.  Only when valid().
    void next() {
      ++idx_;
      // Hop over exhausted leaves (erase_key may leave empty ones in the
      // chain).  tail_ only ever names a non-empty leaf, so seek()'s
      // past-the-end probe can always read its last row.
      while (leaf_ != nullptr && idx_ >= tree_->leaf_rows(*leaf_)) {
        if (tree_->leaf_rows(*leaf_) > 0) tail_ = leaf_;
        leaf_ = leaf_->next;
        idx_ = 0;
      }
    }

    [[nodiscard]] Position position() const { return {leaf_, idx_}; }
    void restore(const Position& p) {
      leaf_ = p.leaf;
      idx_ = p.idx;
    }

   private:
    /// Give up on chain-walking and re-descend beyond this many leaves: a
    /// far target costs one comparison per skipped leaf but only
    /// O(depth log fanout) for a descent.
    static constexpr std::size_t kMaxChainHops = 4;

    /// Walk the chain from `l` (rows before `start` excluded) to the leaf
    /// containing the lower bound of `prefix`, visiting at most
    /// `max_leaves` leaves; false = budget exhausted, caller re-descends.
    bool land(const Leaf* l, std::size_t start, std::span<const value_t> prefix,
              std::size_t max_leaves);
    void descend(std::span<const value_t> prefix);

    const TupleBTree* tree_;
    const Leaf* leaf_ = nullptr;  // null = unpositioned or past the end
    std::size_t idx_ = 0;
    const Leaf* tail_ = nullptr;  // last leaf seen before falling off the end
  };

  [[nodiscard]] Cursor cursor() const { return Cursor(*this); }

  /// Visit every stored row whose first prefix.size() columns equal
  /// `prefix`, in key order.  prefix.size() must be <= key_arity (an empty
  /// prefix visits everything).  `fn` receives std::span<const value_t>.
  template <typename Fn>
  void scan_prefix(std::span<const value_t> prefix, Fn&& fn) const {
    Cursor c(*this);
    for (c.seek(prefix); c.valid() && c.matches(prefix); c.next()) fn(c.row());
  }

  /// Visit all rows in key order.  `fn` receives std::span<const value_t>.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Cursor c(*this);
    for (c.seek_first(); c.valid(); c.next()) fn(c.row());
  }

  // -- instrumentation --------------------------------------------------------

  [[nodiscard]] std::uint64_t comparisons() const { return comparisons_; }
  void reset_counters() const { comparisons_ = 0; }

  /// Rough resident size, for memory-pressure modelling.
  [[nodiscard]] std::size_t approx_bytes() const;

  /// Structural invariant check (test hook): sortedness, fanout bounds,
  /// separator correctness, leaf-chain completeness, row count.  Throws
  /// std::logic_error naming the first violated invariant, in every build;
  /// returns the tuple count seen.
  [[nodiscard]] std::size_t check_invariants() const;

 private:
  [[nodiscard]] std::strong_ordering cmp_key(std::span<const value_t> a,
                                             std::span<const value_t> b,
                                             std::size_t ncols) const;

  [[nodiscard]] std::unique_ptr<Leaf> make_leaf() const;

  /// Insert into subtree; if the child splits, returns the new right
  /// sibling and its separator key via out-params.
  bool insert_rec(Node* node, std::span<const value_t> row, Tuple& sep_out,
                  std::unique_ptr<Node>& right_out);

  [[nodiscard]] const Leaf* descend_lower_bound(std::span<const value_t> prefix) const;
  [[nodiscard]] const Leaf* leftmost_leaf() const;

  std::size_t arity_;
  std::size_t key_arity_;
  std::size_t size_ = 0;
  std::unique_ptr<Node> root_;
  mutable std::uint64_t comparisons_ = 0;
};

template <typename Fold>
void TupleBTree::merge_sorted(std::span<const value_t> run, std::vector<value_t>& changed,
                              Fold&& fold) {
  assert(run.size() % arity_ == 0);
  const auto append = [](std::vector<value_t>& to, std::span<const value_t> row) {
    to.insert(to.end(), row.begin(), row.end());
  };
  std::vector<value_t> out;
  out.reserve(size_ * arity_ + run.size());
  std::size_t ri = 0;  // offset of the next run row
  for (const Leaf* l = leftmost_leaf(); l != nullptr; l = l->next) {
    const std::size_t n = leaf_rows(*l);
    std::size_t i = 0;
    // Each pass places one run row that lands in this leaf: its key is at
    // most the leaf's last key, so the scan below stops inside the leaf.
    while (i < n && ri < run.size() &&
           cmp_key(leaf_row(*l, n - 1), run.subspan(ri, arity_), key_arity_) >= 0) {
      const auto in = run.subspan(ri, arity_);
      ri += arity_;
      auto c = cmp_key(leaf_row(*l, i), in, key_arity_);
      for (; c < 0; c = cmp_key(leaf_row(*l, i), in, key_arity_)) {
        append(out, leaf_row(*l, i++));
      }
      if (c > 0) {
        append(out, in);
        append(changed, in);
        continue;
      }
      append(out, leaf_row(*l, i++));
      const std::span<value_t> stored(out.data() + out.size() - arity_, arity_);
      if (fold(stored, in)) append(changed, stored);
    }
    out.insert(out.end(), l->vals.begin() + static_cast<std::ptrdiff_t>(i * arity_),
               l->vals.end());
  }
  for (; ri < run.size(); ri += arity_) {
    append(out, run.subspan(ri, arity_));
    append(changed, run.subspan(ri, arity_));
  }
  assign_sorted(out);
}

}  // namespace paralagg::storage
