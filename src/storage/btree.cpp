#include "storage/btree.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace paralagg::storage {

void sort_rows(std::vector<value_t>& rows, std::size_t arity, std::size_t key_arity) {
  assert(rows.size() % arity == 0 && key_arity <= arity);
  const std::size_t n = rows.size() / arity;
  if (n < 2) return;
  // LSD radix sort, one byte per pass from the last key column's low byte
  // up to the first column's high byte.  Bytes equal in every row are
  // skipped, so node-id keys take a pass or two per column.
  std::vector<value_t> varying(key_arity, 0);
  for (std::size_t off = arity; off < rows.size(); off += arity) {
    for (std::size_t c = 0; c < key_arity; ++c) varying[c] |= rows[off + c] ^ rows[c];
  }
  std::vector<value_t> tmp(rows.size());
  std::array<std::size_t, 256> pos{};
  for (std::size_t c = key_arity; c-- > 0;) {
    for (unsigned shift = 0; shift < 64; shift += 8) {
      if (((varying[c] >> shift) & 0xff) == 0) continue;
      const auto digit = [&](std::size_t off) { return (rows[off + c] >> shift) & 0xff; };
      pos.fill(0);
      for (std::size_t off = 0; off < rows.size(); off += arity) ++pos[digit(off)];
      std::size_t sum = 0;
      for (auto& p : pos) sum += std::exchange(p, sum);
      for (std::size_t off = 0; off < rows.size(); off += arity) {
        std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(off), arity,
                    tmp.begin() + static_cast<std::ptrdiff_t>(pos[digit(off)]++ * arity));
      }
      rows.swap(tmp);
    }
  }
}

TupleBTree::TupleBTree(std::size_t arity, std::size_t key_arity)
    : arity_(arity), key_arity_(key_arity), root_(make_leaf()) {
  assert(key_arity >= 1 && key_arity <= arity);
}

TupleBTree::~TupleBTree() = default;
TupleBTree::TupleBTree(TupleBTree&&) noexcept = default;
TupleBTree& TupleBTree::operator=(TupleBTree&&) noexcept = default;

std::strong_ordering TupleBTree::cmp_key(std::span<const value_t> a,
                                         std::span<const value_t> b,
                                         std::size_t ncols) const {
  ++comparisons_;
  return compare_prefix(a, b, ncols);
}

std::unique_ptr<TupleBTree::Leaf> TupleBTree::make_leaf() const {
  auto leaf = std::make_unique<Leaf>();
  // One past capacity: a leaf briefly holds kLeafCap + 1 rows before a
  // split, and reserving for it keeps leaf storage from ever reallocating.
  leaf->vals.reserve((kLeafCap + 1) * arity_);
  return leaf;
}

void TupleBTree::clear() {
  root_ = make_leaf();
  size_ = 0;
}

void TupleBTree::assign_sorted(std::span<const value_t> rows) {
  assert(rows.size() % arity_ == 0);
  const std::size_t nrows = rows.size() / arity_;
  for (std::size_t i = 1; i < nrows; ++i) {
    assert(compare_prefix(rows.subspan((i - 1) * arity_, arity_),
                          rows.subspan(i * arity_, arity_), key_arity_) < 0 &&
           "assign_sorted needs strictly increasing keys");
  }
  clear();  // free the old tree before building the new one
  if (nrows == 0) return;
  // `count` items split into ceil(count / cap) groups of near-equal size.
  const auto groups = [](std::size_t count, std::size_t cap) {
    return (count + cap - 1) / cap;
  };

  // Level 0: the leaf chain; `mins` holds each node's minimum key.
  std::vector<std::unique_ptr<Node>> level;
  std::vector<Tuple> mins;
  const std::size_t nleaves = groups(nrows, kLeafCap);
  Leaf* prev = nullptr;
  for (std::size_t j = 0, begin = 0; j < nleaves; ++j) {
    const std::size_t end = nrows * (j + 1) / nleaves;
    auto leaf = make_leaf();
    leaf->vals.assign(rows.begin() + static_cast<std::ptrdiff_t>(begin * arity_),
                      rows.begin() + static_cast<std::ptrdiff_t>(end * arity_));
    if (prev != nullptr) prev->next = leaf.get();
    prev = leaf.get();
    mins.emplace_back(leaf_row(*leaf, 0).first(key_arity_));
    level.push_back(std::move(leaf));
    begin = end;
  }
  // Inner levels: seps[i] is the minimum key of children[i + 1].
  while (level.size() > 1) {
    const std::size_t nnodes = groups(level.size(), kInnerCap);
    std::vector<std::unique_ptr<Node>> up;
    std::vector<Tuple> up_mins;
    for (std::size_t j = 0, begin = 0; j < nnodes; ++j) {
      const std::size_t end = level.size() * (j + 1) / nnodes;
      auto inner = std::make_unique<Inner>();
      for (std::size_t k = begin; k < end; ++k) {
        if (k > begin) inner->seps.push_back(std::move(mins[k]));
        inner->children.push_back(std::move(level[k]));
      }
      up_mins.push_back(std::move(mins[begin]));
      up.push_back(std::move(inner));
      begin = end;
    }
    level = std::move(up);
    mins = std::move(up_mins);
  }
  root_ = std::move(level.front());
  size_ = nrows;
}

namespace {

/// First index in [0, n) for which pred(i) is false; pred must be
/// monotone (true...true false...false).  Plain binary search, kept local
/// so the comparator-counting hooks stay inside TupleBTree.
template <typename Pred>
std::size_t partition_point_idx(std::size_t n, Pred pred) {
  std::size_t lo = 0, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

bool TupleBTree::insert(std::span<const value_t> row) {
  assert(row.size() == arity_);
  Tuple sep;
  std::unique_ptr<Node> right;
  const bool inserted = insert_rec(root_.get(), row, sep, right);
  if (right) {
    auto new_root = std::make_unique<Inner>();
    new_root->seps.push_back(std::move(sep));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(right));
    root_ = std::move(new_root);
  }
  if (inserted) ++size_;
  return inserted;
}

bool TupleBTree::insert_rec(Node* node, std::span<const value_t> row, Tuple& sep_out,
                            std::unique_ptr<Node>& right_out) {
  const auto key = row.first(key_arity_);

  if (node->is_leaf) {
    auto* leaf = static_cast<Leaf*>(node);
    const std::size_t n = leaf_rows(*leaf);
    // First row whose key is >= the new row's key.
    const std::size_t pos = partition_point_idx(n, [&](std::size_t i) {
      return cmp_key(leaf_row(*leaf, i), key, key_arity_) < 0;
    });
    if (pos < n && cmp_key(leaf_row(*leaf, pos), key, key_arity_) == 0) {
      return false;  // duplicate key
    }
    leaf->vals.insert(leaf->vals.begin() + static_cast<std::ptrdiff_t>(pos * arity_),
                      row.begin(), row.end());
    if (leaf_rows(*leaf) > kLeafCap) {
      auto right = make_leaf();
      const std::size_t half = leaf_rows(*leaf) / 2;
      right->vals.assign(leaf->vals.begin() + static_cast<std::ptrdiff_t>(half * arity_),
                         leaf->vals.end());
      leaf->vals.resize(half * arity_);
      right->next = leaf->next;
      leaf->next = right.get();
      sep_out = Tuple(leaf_row(*right, 0).first(key_arity_));
      right_out = std::move(right);
    }
    return true;
  }

  auto* inner = static_cast<Inner*>(node);
  // Child index: number of separators <= key (equal keys belong right).
  const std::size_t ci = partition_point_idx(inner->seps.size(), [&](std::size_t i) {
    return cmp_key(inner->seps[i].view(), key, key_arity_) <= 0;
  });

  Tuple child_sep;
  std::unique_ptr<Node> child_right;
  const bool inserted = insert_rec(inner->children[ci].get(), row, child_sep, child_right);
  if (child_right) {
    inner->seps.insert(inner->seps.begin() + static_cast<std::ptrdiff_t>(ci),
                       std::move(child_sep));
    inner->children.insert(inner->children.begin() + static_cast<std::ptrdiff_t>(ci) + 1,
                           std::move(child_right));
    if (inner->children.size() > kInnerCap) {
      auto right = std::make_unique<Inner>();
      const std::size_t mid = inner->seps.size() / 2;
      sep_out = std::move(inner->seps[mid]);
      right->seps.assign(std::make_move_iterator(inner->seps.begin() + static_cast<std::ptrdiff_t>(mid) + 1),
                         std::make_move_iterator(inner->seps.end()));
      right->children.assign(
          std::make_move_iterator(inner->children.begin() + static_cast<std::ptrdiff_t>(mid) + 1),
          std::make_move_iterator(inner->children.end()));
      inner->seps.resize(mid);
      inner->children.resize(mid + 1);
      right_out = std::move(right);
    }
  }
  return inserted;
}

bool TupleBTree::erase_key(std::span<const value_t> key) {
  assert(key.size() == key_arity_);
  // Same chain-tolerant walk as find_key; leaf storage is not const (the
  // const_cast mirrors the mutable find_key overload).
  for (const Leaf* cl = descend_lower_bound(key); cl != nullptr; cl = cl->next) {
    const std::size_t n = leaf_rows(*cl);
    const std::size_t pos = partition_point_idx(n, [&](std::size_t i) {
      return cmp_key(leaf_row(*cl, i), key, key_arity_) < 0;
    });
    if (pos < n) {
      if (cmp_key(leaf_row(*cl, pos), key, key_arity_) != 0) return false;
      auto* leaf = const_cast<Leaf*>(cl);
      const auto first = leaf->vals.begin() + static_cast<std::ptrdiff_t>(pos * arity_);
      leaf->vals.erase(first, first + static_cast<std::ptrdiff_t>(arity_));
      --size_;
      return true;
    }
  }
  return false;
}

const TupleBTree::Leaf* TupleBTree::descend_lower_bound(
    std::span<const value_t> prefix) const {
  const std::size_t p = prefix.size();
  const Node* node = root_.get();
  while (!node->is_leaf) {
    const auto* inner = static_cast<const Inner*>(node);
    // Tuples with keys == prefix (on p columns) may extend left of an equal
    // separator, so descend at the first separator >= prefix.
    const std::size_t ci = partition_point_idx(inner->seps.size(), [&](std::size_t i) {
      return cmp_key(inner->seps[i].view(), prefix, p) < 0;
    });
    node = inner->children[ci].get();
  }
  return static_cast<const Leaf*>(node);
}

const TupleBTree::Leaf* TupleBTree::leftmost_leaf() const {
  const Node* node = root_.get();
  while (!node->is_leaf) node = static_cast<const Inner*>(node)->children.front().get();
  return static_cast<const Leaf*>(node);
}

std::span<value_t> TupleBTree::find_key(std::span<const value_t> key) {
  const auto view = std::as_const(*this).find_key(key);
  // Leaf storage is not const; the const overload exists so read-only
  // callers get a read-only span.
  return {const_cast<value_t*>(view.data()), view.size()};
}

std::span<const value_t> TupleBTree::find_key(std::span<const value_t> key) const {
  assert(key.size() == key_arity_);
  const Leaf* leaf = descend_lower_bound(key);
  // The match, if present, is in this leaf or (if it sits exactly on a
  // boundary) the next one.
  for (; leaf != nullptr; leaf = leaf->next) {
    const std::size_t n = leaf_rows(*leaf);
    const std::size_t pos = partition_point_idx(n, [&](std::size_t i) {
      return cmp_key(leaf_row(*leaf, i), key, key_arity_) < 0;
    });
    if (pos < n) {
      if (cmp_key(leaf_row(*leaf, pos), key, key_arity_) == 0) {
        return leaf_row(*leaf, pos);
      }
      return {};  // first row >= key differs -> absent
    }
    // Entire leaf < key (or emptied by erase); continue into the chain.
  }
  return {};
}

// -- cursor -------------------------------------------------------------------

void TupleBTree::Cursor::seek_first() {
  tail_ = nullptr;
  // The leftmost leaf (and any run after it) may be empty after erases.
  const Leaf* l = tree_->leftmost_leaf();
  while (l != nullptr && tree_->leaf_rows(*l) == 0) l = l->next;
  leaf_ = l;  // null = tree holds no rows
  idx_ = 0;
}

bool TupleBTree::Cursor::land(const Leaf* l, std::size_t start,
                              std::span<const value_t> prefix, std::size_t max_leaves) {
  const std::size_t p = prefix.size();
  for (; l != nullptr; l = l->next, start = 0) {
    const std::size_t n = tree_->leaf_rows(*l);
    if (start >= n) {
      if (n > 0) tail_ = l;
      continue;  // nothing left in this leaf (also skips an empty root)
    }
    if (tree_->cmp_key(tree_->leaf_row(*l, n - 1), prefix, p) < 0) {
      // Whole leaf below the target: one comparison, hop on.
      tail_ = l;
      if (max_leaves-- == 0) return false;
      continue;
    }
    // Lower bound is inside [start, n) of this leaf.
    const std::size_t pos =
        start + partition_point_idx(n - start, [&](std::size_t i) {
          return tree_->cmp_key(tree_->leaf_row(*l, start + i), prefix, p) < 0;
        });
    leaf_ = l;
    idx_ = pos;
    return true;
  }
  leaf_ = nullptr;  // past the last row
  return true;
}

void TupleBTree::Cursor::descend(std::span<const value_t> prefix) {
  tail_ = nullptr;
  // descend_lower_bound may stop one leaf early when the target sits
  // exactly on a boundary; land() absorbs the extra hop.
  land(tree_->descend_lower_bound(prefix), 0, prefix, SIZE_MAX);
}

void TupleBTree::Cursor::seek(std::span<const value_t> prefix) {
  assert(prefix.size() <= tree_->key_arity_);
  if (leaf_ != nullptr) {
    const auto c = tree_->cmp_key(row(), prefix, prefix.size());
    if (c == 0) return;  // already at a matching row: lower bound from here
    if (c < 0) {
      // Monotone fast path: the target is ahead; resume from this leaf.
      if (land(leaf_, idx_ + 1, prefix, kMaxChainHops)) return;
    }
    // Target behind the cursor, or too far ahead for the chain budget.
    descend(prefix);
    return;
  }
  if (tail_ != nullptr) {
    const std::size_t n = tree_->leaf_rows(*tail_);
    if (tree_->cmp_key(tree_->leaf_row(*tail_, n - 1), prefix, prefix.size()) < 0) {
      return;  // already past the end and the target is beyond the last row
    }
  }
  descend(prefix);
}

// -- instrumentation ----------------------------------------------------------

std::size_t TupleBTree::approx_bytes() const {
  // Flat row payload + amortised node overhead (headers, separators).
  return size_ * arity_ * sizeof(value_t) + size_ / kLeafCap * 96;
}

std::size_t TupleBTree::check_invariants() const {
  const auto require = [](bool ok, const char* invariant) {
    if (!ok) {
      throw std::logic_error(std::string("TupleBTree invariant violated: ") + invariant);
    }
  };
  std::size_t count = 0;
  std::vector<value_t> prev;
  std::vector<const void*> leaves_in_order;

  // In-order structural walk (std::function is fine here: cold test hook).
  std::function<void(const Node*, const Tuple*, const Tuple*)> walk =
      [&](const Node* node, const Tuple* lo, const Tuple* hi) {
        if (node->is_leaf) {
          const auto* leaf = static_cast<const Leaf*>(node);
          leaves_in_order.push_back(leaf);
          require(leaf->vals.size() % arity_ == 0, "leaf holds whole rows");
          require(leaf_rows(*leaf) <= kLeafCap, "leaf rows <= kLeafCap");
          for (std::size_t i = 0; i < leaf_rows(*leaf); ++i) {
            const auto t = leaf_row(*leaf, i);
            require(prev.empty() || compare_prefix(prev, t, key_arity_) < 0,
                    "rows strictly increase by key");
            require(lo == nullptr || compare_prefix(lo->view(), t, key_arity_) <= 0,
                    "rows >= their left separator");
            require(hi == nullptr || compare_prefix(t, hi->view(), key_arity_) < 0,
                    "rows < their right separator");
            prev.assign(t.begin(), t.end());
            ++count;
          }
          return;
        }
        const auto* inner = static_cast<const Inner*>(node);
        require(inner->children.size() == inner->seps.size() + 1,
                "inner children == separators + 1");
        require(inner->children.size() <= kInnerCap, "inner children <= kInnerCap");
        for (std::size_t i = 0; i + 1 < inner->seps.size(); ++i) {
          require(compare_prefix(inner->seps[i].view(), inner->seps[i + 1].view(),
                                 key_arity_) < 0,
                  "separators strictly increase");
        }
        for (std::size_t i = 0; i < inner->children.size(); ++i) {
          const Tuple* clo = i == 0 ? lo : &inner->seps[i - 1];
          const Tuple* chi = i == inner->seps.size() ? hi : &inner->seps[i];
          walk(inner->children[i].get(), clo, chi);
        }
      };
  walk(root_.get(), nullptr, nullptr);
  require(count == size_, "row count == size()");

  // Leaf chain must enumerate exactly the in-order leaves.
  std::size_t idx = 0;
  for (const auto* leaf = leftmost_leaf(); leaf != nullptr; leaf = leaf->next) {
    require(idx < leaves_in_order.size() && leaves_in_order[idx] == leaf,
            "leaf chain follows in-order leaves");
    ++idx;
  }
  require(idx == leaves_in_order.size(), "leaf chain reaches every leaf");
  return count;
}

}  // namespace paralagg::storage
