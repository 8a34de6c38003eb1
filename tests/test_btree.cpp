// TupleBTree: insertion, lookup, prefix scans, cursors, bulk building and
// sorted-run merges, structural invariants.

#include "storage/btree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace paralagg::storage {
namespace {

TEST(BTree, EmptyTreeBasics) {
  TupleBTree t(2, 2);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  const value_t key[] = {1, 2};
  EXPECT_TRUE(t.find_key(std::span<const value_t>(key, 2)).empty());
  std::size_t visits = 0;
  t.for_each([&](std::span<const value_t>) { ++visits; });
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(t.check_invariants(), 0u);
}

TEST(BTree, InsertAndFind) {
  TupleBTree t(2, 2);
  EXPECT_TRUE(t.insert(Tuple{3, 4}));
  EXPECT_EQ(t.size(), 1u);
  const value_t key[] = {3, 4};
  const auto found = t.find_key(std::span<const value_t>(key, 2));
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(Tuple(found), (Tuple{3, 4}));
}

TEST(BTree, DuplicateKeyRejected) {
  TupleBTree t(2, 2);
  EXPECT_TRUE(t.insert(Tuple{3, 4}));
  EXPECT_FALSE(t.insert(Tuple{3, 4}));
  EXPECT_EQ(t.size(), 1u);
}

TEST(BTree, PayloadDistinguishedFromKey) {
  // key_arity 1: second column is payload; same key -> rejected even with
  // a different payload.
  TupleBTree t(2, 1);
  EXPECT_TRUE(t.insert(Tuple{7, 100}));
  EXPECT_FALSE(t.insert(Tuple{7, 200}));
  const value_t key[] = {7};
  const auto found = t.find_key(std::span<const value_t>(key, 1));
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[1], 100u);  // original payload kept
}

TEST(BTree, PayloadMutableInPlace) {
  TupleBTree t(2, 1);
  t.insert(Tuple{7, 100});
  const value_t key[] = {7};
  const std::span<value_t> row = t.find_key(std::span<const value_t>(key, 1));
  ASSERT_FALSE(row.empty());
  row[1] = 55;
  EXPECT_EQ(std::as_const(t).find_key(std::span<const value_t>(key, 1))[1], 55u);
  EXPECT_EQ(t.check_invariants(), 1u);
}

TEST(BTree, ManyInsertionsStaySortedAndComplete) {
  TupleBTree t(2, 2);
  // Insert in a scrambled deterministic order.
  std::vector<value_t> keys;
  for (value_t v = 0; v < 5000; ++v) keys.push_back(mix64(v) % 100000);
  std::set<std::pair<value_t, value_t>> expect;
  for (value_t k : keys) {
    const Tuple row{k, k + 1};
    const bool fresh = expect.emplace(k, k + 1).second;
    EXPECT_EQ(t.insert(row), fresh);
  }
  EXPECT_EQ(t.size(), expect.size());
  EXPECT_EQ(t.check_invariants(), expect.size());

  // for_each must yield key order exactly.
  std::vector<std::pair<value_t, value_t>> seen;
  t.for_each([&](std::span<const value_t> row) { seen.emplace_back(row[0], row[1]); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_TRUE(std::equal(seen.begin(), seen.end(), expect.begin(), expect.end()));
}

TEST(BTree, FindAfterHeavyLoad) {
  TupleBTree t(1, 1);
  for (value_t v = 0; v < 3000; ++v) t.insert(Tuple{v * 2});  // evens only
  for (value_t v = 0; v < 3000; ++v) {
    const value_t even[] = {v * 2};
    const value_t odd[] = {v * 2 + 1};
    EXPECT_FALSE(t.find_key(std::span<const value_t>(even, 1)).empty()) << v;
    EXPECT_TRUE(t.find_key(std::span<const value_t>(odd, 1)).empty()) << v;
  }
}

TEST(BTree, PrefixScanFindsAllMatches) {
  TupleBTree t(2, 2);
  // 100 groups of 0..group_size rows.
  std::map<value_t, std::size_t> expect;
  for (value_t g = 0; g < 100; ++g) {
    const std::size_t count = static_cast<std::size_t>(g % 7);
    for (std::size_t i = 0; i < count; ++i) {
      t.insert(Tuple{g, static_cast<value_t>(i)});
    }
    expect[g] = count;
  }
  for (value_t g = 0; g < 100; ++g) {
    std::vector<value_t> seconds;
    const value_t prefix[] = {g};
    t.scan_prefix(std::span<const value_t>(prefix, 1),
                  [&](std::span<const value_t> row) { seconds.push_back(row[1]); });
    EXPECT_EQ(seconds.size(), expect[g]) << "group " << g;
    EXPECT_TRUE(std::is_sorted(seconds.begin(), seconds.end()));
  }
}

TEST(BTree, PrefixScanOnAbsentPrefixIsEmpty) {
  TupleBTree t(2, 2);
  for (value_t g = 0; g < 50; ++g) t.insert(Tuple{g * 10, 1});
  const value_t prefix[] = {5};  // between groups
  std::size_t hits = 0;
  t.scan_prefix(std::span<const value_t>(prefix, 1),
                [&](std::span<const value_t>) { ++hits; });
  EXPECT_EQ(hits, 0u);
}

TEST(BTree, PrefixScanFullKeyActsAsLookup) {
  TupleBTree t(3, 2);
  t.insert(Tuple{1, 2, 77});
  const value_t prefix[] = {1, 2};
  std::size_t hits = 0;
  t.scan_prefix(std::span<const value_t>(prefix, 2), [&](std::span<const value_t> row) {
    ++hits;
    EXPECT_EQ(row[2], 77u);
  });
  EXPECT_EQ(hits, 1u);
}

TEST(BTree, PrefixScanSpanningLeafBoundaries) {
  // One giant group forces the group to span many leaves.
  TupleBTree t(2, 2);
  for (value_t i = 0; i < 1000; ++i) t.insert(Tuple{42, i});
  t.insert(Tuple{41, 0});
  t.insert(Tuple{43, 0});
  std::size_t hits = 0;
  const value_t prefix[] = {42};
  t.scan_prefix(std::span<const value_t>(prefix, 1),
                [&](std::span<const value_t>) { ++hits; });
  EXPECT_EQ(hits, 1000u);
}

TEST(BTree, PrefixScanEmptyPrefixVisitsEverything) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 1234; ++v) t.insert(Tuple{mix64(v) % 5000, v});
  std::size_t hits = 0;
  value_t prev_first = 0;
  bool first = true;
  t.scan_prefix(std::span<const value_t>{}, [&](std::span<const value_t> row) {
    if (!first) EXPECT_GE(row[0], prev_first);
    prev_first = row[0];
    first = false;
    ++hits;
  });
  EXPECT_EQ(hits, t.size());
  EXPECT_EQ(t.check_invariants(), t.size());
}

TEST(BTree, PrefixShorterThanKeyArity) {
  // key_arity 3, scans over 1- and 2-column prefixes.
  TupleBTree t(3, 3);
  for (value_t a = 0; a < 8; ++a) {
    for (value_t b = 0; b < 8; ++b) {
      for (value_t c = 0; c < 3; ++c) t.insert(Tuple{a, b, c});
    }
  }
  const value_t one[] = {5};
  std::size_t hits1 = 0;
  t.scan_prefix(std::span<const value_t>(one, 1), [&](std::span<const value_t> row) {
    EXPECT_EQ(row[0], 5u);
    ++hits1;
  });
  EXPECT_EQ(hits1, 8u * 3u);

  const value_t two[] = {5, 2};
  std::size_t hits2 = 0;
  t.scan_prefix(std::span<const value_t>(two, 2), [&](std::span<const value_t> row) {
    EXPECT_EQ(row[0], 5u);
    EXPECT_EQ(row[1], 2u);
    ++hits2;
  });
  EXPECT_EQ(hits2, 3u);
  EXPECT_EQ(t.check_invariants(), t.size());
}

TEST(BTree, SeekPastLastKey) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 200; ++v) t.insert(Tuple{v, v});
  auto c = t.cursor();
  const value_t beyond[] = {1000};
  c.seek(std::span<const value_t>(beyond, 1));
  EXPECT_FALSE(c.valid());
  // Further seeks beyond the end stay at the end (and stay cheap), but a
  // seek back inside the key space must recover via a fresh descent.
  const value_t farther[] = {2000};
  c.seek(std::span<const value_t>(farther, 1));
  EXPECT_FALSE(c.valid());
  const value_t inside[] = {42};
  c.seek(std::span<const value_t>(inside, 1));
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.row()[0], 42u);
  EXPECT_EQ(t.check_invariants(), t.size());
}

TEST(BTree, SeekIntoJustSplitLeaf) {
  // Drive the tree through its first leaf split (kLeafCap = 32) and seek
  // around the split boundary after every insert.
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 40; ++v) {
    ASSERT_TRUE(t.insert(Tuple{v * 2, v}));
    ASSERT_EQ(t.check_invariants(), static_cast<std::size_t>(v + 1));
    auto c = t.cursor();
    // Seek to each stored key and to the gap just before it.
    for (value_t probe = 0; probe <= v; ++probe) {
      const value_t exact[] = {probe * 2};
      c.seek(std::span<const value_t>(exact, 1));
      ASSERT_TRUE(c.valid()) << "insert " << v << " probe " << probe;
      EXPECT_EQ(c.row()[0], probe * 2);
      const value_t gap[] = {probe * 2 + 1};
      c.seek(std::span<const value_t>(gap, 1));  // lower bound = next key
      if (probe < v) {
        ASSERT_TRUE(c.valid());
        EXPECT_EQ(c.row()[0], (probe + 1) * 2);
      } else {
        EXPECT_FALSE(c.valid());
      }
    }
  }
}

TEST(BTree, CursorSeekFirstMatchesForEach) {
  TupleBTree t(3, 2);
  for (value_t v = 0; v < 2500; ++v) t.insert(Tuple{mix64(v) % 700, v % 5, v});
  std::vector<Tuple> via_for_each;
  t.for_each([&](std::span<const value_t> row) { via_for_each.emplace_back(row); });
  std::vector<Tuple> via_cursor;
  auto c = t.cursor();
  for (c.seek_first(); c.valid(); c.next()) via_cursor.emplace_back(c.row());
  EXPECT_EQ(via_for_each, via_cursor);
}

TEST(BTree, CursorEmptyTree) {
  TupleBTree t(2, 1);
  auto c = t.cursor();
  c.seek_first();
  EXPECT_FALSE(c.valid());
  const value_t key[] = {3};
  c.seek(std::span<const value_t>(key, 1));
  EXPECT_FALSE(c.valid());
}

TEST(BTree, CursorMonotoneSeeksMatchFreshScans) {
  // Differential: a single cursor driven through an ascending probe
  // sequence must enumerate exactly what per-probe scan_prefix does.
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 4000; ++v) t.insert(Tuple{mix64(v) % 500, v});
  std::vector<value_t> probes;
  for (value_t p = 0; p < 600; ++p) probes.push_back(p);  // hits and misses
  auto c = t.cursor();
  for (value_t p : probes) {
    const value_t prefix[] = {p};
    const auto pre = std::span<const value_t>(prefix, 1);
    std::vector<value_t> fresh;
    t.scan_prefix(pre, [&](std::span<const value_t> row) { fresh.push_back(row[1]); });
    std::vector<value_t> resumed;
    for (c.seek(pre); c.valid() && c.matches(pre); c.next()) resumed.push_back(c.row()[1]);
    EXPECT_EQ(fresh, resumed) << "probe " << p;
  }
}

TEST(BTree, CursorNonMonotoneSeekIsCorrect) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 3000; ++v) t.insert(Tuple{v, v});
  auto c = t.cursor();
  // Descending and zig-zag probes: always globally correct, just slower.
  const value_t seq[] = {2500, 100, 2400, 50, 2999, 0, 1500, 1500};
  for (value_t p : seq) {
    const value_t prefix[] = {p};
    c.seek(std::span<const value_t>(prefix, 1));
    ASSERT_TRUE(c.valid()) << p;
    EXPECT_EQ(c.row()[0], p);
  }
}

TEST(BTree, CursorPositionRestoreReplaysRange) {
  TupleBTree t(2, 2);
  for (value_t i = 0; i < 300; ++i) t.insert(Tuple{7, i});
  t.insert(Tuple{6, 0});
  t.insert(Tuple{8, 0});
  auto c = t.cursor();
  const value_t prefix[] = {7};
  const auto pre = std::span<const value_t>(prefix, 1);
  c.seek(pre);
  const auto begin = c.position();
  std::size_t n = 0;
  while (c.valid() && c.matches(pre)) {
    ++n;
    c.next();
  }
  ASSERT_EQ(n, 300u);
  // Replay the recorded range twice without re-matching.
  for (int rep = 0; rep < 2; ++rep) {
    c.restore(begin);
    value_t want = 0;
    for (std::size_t i = 0; i < n; ++i, c.next()) {
      ASSERT_TRUE(c.valid());
      EXPECT_EQ(c.row()[0], 7u);
      EXPECT_EQ(c.row()[1], want++);
    }
  }
}

TEST(BTree, SortedSeeksCostFewerComparisonsThanFreshScans) {
  // The counter-based version of the bench/probe_kernel verdict: the same
  // ascending probe set through one monotone cursor must cost strictly
  // fewer key comparisons than per-probe fresh descents.
  TupleBTree t(2, 1);
  for (value_t v = 0; v < 20000; ++v) t.insert(Tuple{mix64(v) % 30000, v});

  std::vector<value_t> probes;
  for (value_t p = 0; p < 30000; p += 3) probes.push_back(p);

  t.reset_counters();
  std::size_t sink = 0;
  for (value_t p : probes) {
    const value_t prefix[] = {p};
    t.scan_prefix(std::span<const value_t>(prefix, 1),
                  [&](std::span<const value_t>) { ++sink; });
  }
  const auto fresh_cmps = t.comparisons();

  t.reset_counters();
  std::size_t sink2 = 0;
  auto c = t.cursor();
  for (value_t p : probes) {
    const value_t prefix[] = {p};
    const auto pre = std::span<const value_t>(prefix, 1);
    for (c.seek(pre); c.valid() && c.matches(pre); c.next()) ++sink2;
  }
  const auto sorted_cmps = t.comparisons();

  EXPECT_EQ(sink, sink2);
  EXPECT_LT(sorted_cmps, fresh_cmps);
}

TEST(BTree, SortedRunMergeCostsFewerComparisonsThanPerRowInserts) {
  // The insert-side twin: placing a sorted run by one merge pass must cost
  // strictly fewer counted key comparisons than inserting the same rows
  // one by one, and must leave the same tree.
  std::vector<value_t> base;
  for (value_t v = 0; v < 20000; ++v) base.insert(base.end(), {2 * v, v});
  std::vector<value_t> run;
  for (value_t v = 0; v < 40000; v += 7) run.insert(run.end(), {v, v});

  TupleBTree per_row(2, 1), merged(2, 1);
  per_row.assign_sorted(base);
  merged.assign_sorted(base);
  EXPECT_EQ(per_row.comparisons(), 0u);  // bulk building compares nothing

  for (std::size_t off = 0; off < run.size(); off += 2) {
    per_row.insert(std::span<const value_t>(run).subspan(off, 2));
  }
  std::vector<value_t> changed;
  merged.merge_sorted(run, changed, [](std::span<value_t>, std::span<const value_t>) {
    return false;  // keep stored rows, like insert
  });

  EXPECT_EQ(merged.check_invariants(), per_row.size());
  std::vector<Tuple> a, b;
  per_row.for_each([&](std::span<const value_t> row) { a.emplace_back(row); });
  merged.for_each([&](std::span<const value_t> row) { b.emplace_back(row); });
  EXPECT_EQ(a, b);
  EXPECT_EQ(changed.size() / 2, per_row.size() - base.size() / 2);  // the inserted rows
  EXPECT_LT(merged.comparisons(), per_row.comparisons());
}

TEST(BTree, AssignSortedBuildsValidTrees) {
  // Empty, one row, one full leaf, one past it (two leaves under a root),
  // and one past a full two-level tree (three levels).
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, TupleBTree::kLeafCap,
                              TupleBTree::kLeafCap + 1,
                              TupleBTree::kLeafCap * TupleBTree::kInnerCap + 1}) {
    SCOPED_TRACE("rows " + std::to_string(n));
    TupleBTree t(2, 1);
    for (value_t v = 0; v < 50; ++v) t.insert(Tuple{v * 3 + 1, 9});  // replaced below
    std::vector<value_t> rows;
    for (value_t v = 0; v < n; ++v) rows.insert(rows.end(), {2 * v, 7 * v});
    t.assign_sorted(rows);
    ASSERT_EQ(t.check_invariants(), n);
    std::vector<value_t> seen;
    t.for_each([&](std::span<const value_t> row) {
      seen.insert(seen.end(), row.begin(), row.end());
    });
    EXPECT_EQ(seen, rows);
    auto c = t.cursor();
    for (value_t v = 0; v < n; ++v) {
      const value_t key[] = {2 * v};
      ASSERT_FALSE(t.find_key(std::span<const value_t>(key, 1)).empty()) << v;
      const value_t gap[] = {2 * v + 1};
      EXPECT_TRUE(t.find_key(std::span<const value_t>(gap, 1)).empty()) << v;
      c.seek(std::span<const value_t>(key, 1));
      ASSERT_TRUE(c.valid());
      EXPECT_EQ(c.row()[1], 7 * v);
    }
    // Packed leaves still split correctly under inserts into the gaps.
    for (value_t v = 0; v < n; ++v) ASSERT_TRUE(t.insert(Tuple{2 * v + 1, 0}));
    EXPECT_EQ(t.check_invariants(), 2 * n);
  }
}

TEST(BTree, ClearEmptiesTree) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 500; ++v) t.insert(Tuple{v, v});
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.check_invariants(), 0u);
  EXPECT_TRUE(t.insert(Tuple{1, 1}));
}

TEST(BTree, MoveTransfersOwnership) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 200; ++v) t.insert(Tuple{v, v});
  TupleBTree moved = std::move(t);
  EXPECT_EQ(moved.size(), 200u);
  EXPECT_EQ(moved.check_invariants(), 200u);
}

TEST(BTree, CountsComparisonsMonotonically) {
  TupleBTree t(1, 1);
  for (value_t v = 0; v < 100; ++v) t.insert(Tuple{v});
  const auto after_insert = t.comparisons();
  EXPECT_GT(after_insert, 0u);
  const value_t key[] = {50};
  (void)std::as_const(t).find_key(std::span<const value_t>(key, 1));
  EXPECT_GT(t.comparisons(), after_insert);
  t.reset_counters();
  EXPECT_EQ(t.comparisons(), 0u);
}

TEST(BTree, ApproxBytesGrowsWithContent) {
  TupleBTree t(3, 3);
  const auto empty = t.approx_bytes();
  for (value_t v = 0; v < 1000; ++v) t.insert(Tuple{v, v, v});
  EXPECT_GT(t.approx_bytes(), empty);
}

TEST(BTree, FuzzAgainstStdMap) {
  // Randomized differential test: interleaved inserts, erases, lookups,
  // payload rewrites, sorted-run merges, prefix scans, and monotone cursor
  // batches against a std::map reference, from an empty and from a
  // bulk-built tree.
  for (const bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "bulk-built start" : "empty start");
    TupleBTree tree(3, 2);
    std::map<std::pair<value_t, value_t>, value_t> ref;
    value_t state = 12345;
    const auto rnd = [&](value_t bound) {
      state = mix64(state);
      return state % bound;
    };
    if (bulk) {
      for (int i = 0; i < 600; ++i) ref.emplace(std::make_pair(rnd(64), rnd(16)), rnd(1000));
      std::vector<value_t> rows;
      for (const auto& [k, v] : ref) rows.insert(rows.end(), {k.first, k.second, v});
      tree.assign_sorted(rows);
      ASSERT_EQ(tree.check_invariants(), ref.size());
    }
    for (int op = 0; op < 20000; ++op) {
      const value_t k1 = rnd(64), k2 = rnd(16);
      switch (rnd(8)) {
        case 0: {  // insert
          const value_t payload = rnd(1000);
          const bool fresh = ref.emplace(std::make_pair(k1, k2), payload).second;
          EXPECT_EQ(tree.insert(Tuple{k1, k2, payload}), fresh);
          break;
        }
        case 1: {  // point lookup
          const value_t key[] = {k1, k2};
          const auto row = std::as_const(tree).find_key(std::span<const value_t>(key, 2));
          const auto it = ref.find({k1, k2});
          if (it == ref.end()) {
            EXPECT_TRUE(row.empty());
          } else {
            ASSERT_FALSE(row.empty());
            EXPECT_EQ(row[2], it->second);
          }
          break;
        }
        case 2: {  // payload rewrite (the fused-aggregation hot path)
          const value_t key[] = {k1, k2};
          const std::span<value_t> row = tree.find_key(std::span<const value_t>(key, 2));
          auto it = ref.find({k1, k2});
          ASSERT_EQ(!row.empty(), it != ref.end());
          if (!row.empty()) {
            const value_t v = rnd(1000);
            row[2] = v;
            it->second = v;
          }
          break;
        }
        case 3: {  // prefix scan over k1
          const value_t prefix[] = {k1};
          std::vector<std::pair<value_t, value_t>> got;
          tree.scan_prefix(
              std::span<const value_t>(prefix, 1),
              [&](std::span<const value_t> row) { got.emplace_back(row[1], row[2]); });
          std::vector<std::pair<value_t, value_t>> want;
          for (auto it = ref.lower_bound({k1, 0}); it != ref.end() && it->first.first == k1;
               ++it) {
            want.emplace_back(it->first.second, it->second);
          }
          EXPECT_EQ(got, want) << "prefix " << k1 << " at op " << op;
          break;
        }
        case 4: {  // erase (may leave empty leaves in the chain)
          const value_t key[] = {k1, k2};
          EXPECT_EQ(tree.erase_key(std::span<const value_t>(key, 2)), ref.erase({k1, k2}) > 0);
          break;
        }
        case 5: {  // merge a sorted run of up to 8 keys, folding by MIN
          std::map<std::pair<value_t, value_t>, value_t> batch;
          for (value_t i = rnd(8) + 1; i > 0; --i) {
            batch.emplace(std::make_pair(rnd(64), rnd(16)), rnd(1000));
          }
          std::vector<value_t> run, want;
          for (const auto& [k, v] : batch) {
            run.insert(run.end(), {k.first, k.second, v});
            auto [it, fresh] = ref.emplace(k, v);
            if (!fresh && v >= it->second) continue;
            it->second = v;
            want.insert(want.end(), {k.first, k.second, v});
          }
          std::vector<value_t> changed;
          tree.merge_sorted(run, changed,
                            [](std::span<value_t> stored, std::span<const value_t> in) {
                              if (in[2] >= stored[2]) return false;
                              stored[2] = in[2];
                              return true;
                            });
          EXPECT_EQ(changed, want) << "merge at op " << op;
          break;
        }
        default: {  // ascending cursor batch over a few prefixes from k1
          auto c = tree.cursor();
          for (value_t p = k1; p < k1 + 5; ++p) {
            const value_t prefix[] = {p};
            const auto pre = std::span<const value_t>(prefix, 1);
            std::vector<std::pair<value_t, value_t>> got;
            for (c.seek(pre); c.valid() && c.matches(pre); c.next()) {
              got.emplace_back(c.row()[1], c.row()[2]);
            }
            std::vector<std::pair<value_t, value_t>> want;
            for (auto it = ref.lower_bound({p, 0}); it != ref.end() && it->first.first == p;
                 ++it) {
              want.emplace_back(it->first.second, it->second);
            }
            EXPECT_EQ(got, want) << "cursor prefix " << p << " at op " << op;
          }
          break;
        }
      }
      if (op % 1000 == 999) {
        ASSERT_EQ(tree.check_invariants(), ref.size()) << "op " << op;
      }
    }
    EXPECT_EQ(tree.check_invariants(), ref.size());
  }
}

// Parameterized sweep: invariants hold across arities and orderings.
struct BTreeSweepParam {
  std::size_t arity;
  std::size_t key_arity;
  std::size_t count;
  bool reverse;
};

class BTreeSweep : public ::testing::TestWithParam<BTreeSweepParam> {};

TEST_P(BTreeSweep, InvariantsAndMembership) {
  const auto p = GetParam();
  TupleBTree t(p.arity, p.key_arity);
  std::set<Tuple> inserted;
  for (std::size_t i = 0; i < p.count; ++i) {
    const value_t base = p.reverse ? static_cast<value_t>(p.count - i) : static_cast<value_t>(i);
    Tuple row;
    for (std::size_t c = 0; c < p.arity; ++c) row.push_back(mix64(base + c * 7919) % 997);
    if (t.insert(row)) inserted.insert(row);
  }
  EXPECT_EQ(t.check_invariants(), t.size());
  // Every inserted key must be findable (keys are tuple prefixes, and a
  // later row with the same key prefix was rejected, so prefix lookup by
  // the stored row's key must return a row).
  for (const auto& row : inserted) {
    EXPECT_FALSE(t.find_key(row.prefix(p.key_arity)).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeSweep,
    ::testing::Values(BTreeSweepParam{1, 1, 2000, false}, BTreeSweepParam{1, 1, 2000, true},
                      BTreeSweepParam{2, 1, 2000, false}, BTreeSweepParam{2, 2, 2000, true},
                      BTreeSweepParam{3, 2, 3000, false}, BTreeSweepParam{4, 3, 1500, true},
                      BTreeSweepParam{5, 5, 1000, false}));

}  // namespace
}  // namespace paralagg::storage
