// Row frame codec: exact round trips, one case per typed decode error, and
// a seeded byte-mutation sweep over frames shaped like every per-iteration
// exchange that uses the codec (router flat path, the three hierarchical
// legs, async STAGE/PROBE, SSP probe/partial).  Each consumer parses its
// frames only through RowFrameReader and then indexes by the route the
// reader validated, so a frame kind here is its writer calls plus its
// route -> arity contract.

#include "vmpi/row_frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace paralagg::vmpi {
namespace {

using Rows = std::vector<std::uint64_t>;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kTop = std::uint64_t{1} << 63;

Bytes bytes_of(std::initializer_list<unsigned> v) {
  Bytes b;
  for (const unsigned x : v) b.push_back(static_cast<std::byte>(x));
  return b;
}

/// Rows of `arity` columns drawn from the extreme values, then ordered.
Rows make_rows(std::size_t arity, std::size_t n, int order) {
  const std::uint64_t pool[] = {0, 1, kTop, kMax, kTop - 1, 2, kMax - 1, 12345};
  std::vector<Rows> rows(n, Rows(arity));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < arity; ++c) rows[i][c] = pool[(i * 5 + c * 3 + i / 3) % 8];
  }
  if (order > 0) std::sort(rows.begin(), rows.end());
  if (order < 0) std::sort(rows.rbegin(), rows.rend());
  Rows flat;
  for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());
  return flat;
}

TEST(RowFrame, RoundTripsEveryArityOrderAndExtremeValue) {
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    const Rows unsorted = make_rows(arity, 24, 0);
    const Rows ascending = make_rows(arity, 24, 1);
    const Rows descending = make_rows(arity, 24, -1);
    RowFrameWriter w;
    w.word(kMax);
    w.word(0);
    w.section(0, arity, {});  // an empty section
    w.section(1, arity, ascending);
    w.section(2, arity, descending);
    w.section(0, arity, unsorted);
    const Bytes frame = w.take();

    RowFrameReader r(frame);
    EXPECT_EQ(r.word(), kMax);
    EXPECT_EQ(r.word(), 0u);
    const auto arity_of = [&](std::uint64_t) { return arity; };
    const std::pair<std::uint64_t, const Rows*> expected[] = {
        {0, nullptr}, {1, &ascending}, {2, &descending}, {0, &unsorted}};
    for (const auto& [route, rows] : expected) {
      ASSERT_FALSE(r.done());
      Rows out = {7};  // sections append to what the caller holds
      const RowSection s = r.section(3, arity_of, out);
      EXPECT_EQ(s.route, route);
      EXPECT_EQ(s.arity, arity);
      Rows want = {7};
      if (rows != nullptr) want.insert(want.end(), rows->begin(), rows->end());
      EXPECT_EQ(s.count, (want.size() - 1) / arity);
      EXPECT_EQ(out, want) << "arity " << arity << " route " << route;
    }
    EXPECT_TRUE(r.done());
  }
}

TEST(RowFrame, SortedRunLeadingColumnCostsAboutAByte) {
  // A key-sorted SSSP-shaped run: ascending node ids, a handful of sources,
  // small distances.  Raw words would be 24 bytes per row.
  Rows rows;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    rows.insert(rows.end(), {3 * k, k % 4, 40 + k % 50});
  }
  RowFrameWriter w;
  w.section(0, 3, rows);
  const Bytes frame = w.take();
  EXPECT_LT(frame.size(), 4 * 1000u);
  Rows out;
  RowFrameReader r(frame);
  r.section(1, [](std::uint64_t) { return std::size_t{3}; }, out);
  EXPECT_EQ(out, rows);
}

TEST(RowFrame, EachDecodeCheckThrowsTyped) {
  const auto arity2 = [](std::uint64_t) { return std::size_t{2}; };
  {
    // Truncated varint: a continuation bit with no byte after it.
    const Bytes f = bytes_of({0x80});
    RowFrameReader r(f);
    EXPECT_THROW(r.word(), FrameDecodeError);
  }
  {
    // An 11-byte varint.
    Bytes f(10, std::byte{0xff});
    f.push_back(std::byte{0x01});
    RowFrameReader r(f);
    EXPECT_THROW(r.word(), FrameDecodeError);
  }
  {
    // Ten bytes whose last one carries bits beyond 2^64.
    Bytes f(9, std::byte{0xff});
    f.push_back(std::byte{0x02});
    RowFrameReader r(f);
    EXPECT_THROW(r.word(), FrameDecodeError);
  }
  {
    // The longest legal varint still decodes.
    Bytes f(9, std::byte{0xff});
    f.push_back(std::byte{0x01});
    RowFrameReader r(f);
    EXPECT_EQ(r.word(), kMax);
    EXPECT_TRUE(r.done());
  }
  {
    // Route out of range.
    RowFrameWriter w;
    w.section(3, 2, Rows{1, 2});
    const Bytes f = w.take();
    RowFrameReader r(f);
    Rows out;
    EXPECT_THROW(r.section(3, arity2, out), FrameDecodeError);
  }
  {
    // Count over remaining / arity: 3 rows of arity 2 need at least 6
    // bytes, 5 remain.
    const Bytes f = bytes_of({0, 3, 0, 0, 0, 0, 0});
    RowFrameReader r(f);
    Rows out;
    EXPECT_THROW(r.section(1, arity2, out), FrameDecodeError);
  }
  {
    // A huge count never reaches an allocation.
    RowFrameWriter w;
    w.word(0);
    w.word(kMax / 2);
    const Bytes f = w.take();
    RowFrameReader r(f);
    Rows out;
    EXPECT_THROW(r.section(1, arity2, out), FrameDecodeError);
  }
  {
    // Section cut short: the count passes the division check, but the
    // columns are two-byte varints and the bytes run out mid-section.
    const Bytes f = bytes_of({0, 2, 0x80, 0x01, 0x80, 0x01});
    RowFrameReader r(f);
    Rows out;
    EXPECT_THROW(r.section(1, arity2, out), FrameDecodeError);
  }
}

// ---------------------------------------------------------------------------
// Byte-mutation sweep
// ---------------------------------------------------------------------------

/// A frame kind: its header words, route -> arity contract, and one valid
/// frame built with the writer calls its sender uses.
struct FrameKind {
  std::string name;
  std::size_t header_words = 0;
  std::vector<std::size_t> arity_of_route;
  Bytes frame;
};

/// A key-sorted run of `n` rows with ascending leading column.
Rows sorted_run(std::size_t arity, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Rows rows;
  std::uint64_t key = rng() % 100;
  for (std::size_t i = 0; i < n; ++i) {
    key += 1 + rng() % 7;
    rows.push_back(key);
    for (std::size_t c = 1; c < arity; ++c) rows.push_back(rng() % 5000);
  }
  return rows;
}

std::vector<FrameKind> frame_kinds() {
  std::vector<FrameKind> kinds;
  // Two targets: a MIN relation (node, source, dist) and a plain (x, y).
  const std::vector<std::size_t> targets = {3, 2};
  const std::size_t nt = targets.size();
  {
    // Router flat path, and a member's hierarchical scatter frame: one
    // section per non-empty (target) bucket.
    FrameKind k{"router", 0, targets, {}};
    RowFrameWriter w;
    w.section(0, 3, sorted_run(3, 40, 1));
    w.section(1, 2, sorted_run(2, 25, 2));
    k.frame = w.take();
    kinds.push_back(k);
  }
  {
    // Hierarchical gather leg (4 ranks): route = dst * targets + target.
    FrameKind k{"hier-gather", 0, {}, {}};
    for (std::size_t d = 0; d < 4; ++d) {
      for (const std::size_t a : targets) k.arity_of_route.push_back(a);
    }
    RowFrameWriter w;
    for (std::size_t d = 1; d < 4; ++d) {
      for (std::size_t id = 0; id < nt; ++id) {
        w.section(d * nt + id, targets[id], sorted_run(targets[id], 6 + d, 10 * d + id));
      }
    }
    k.frame = w.take();
    kinds.push_back(k);
  }
  {
    // Hierarchical leaders leg (2-rank nodes): route = member index *
    // targets + target.
    FrameKind k{"hier-leaders", 0, {3, 2, 3, 2}, {}};
    RowFrameWriter w;
    w.section(0, 3, sorted_run(3, 12, 21));
    w.section(3, 2, sorted_run(2, 9, 22));
    w.section(2, 3, sorted_run(3, 5, 23));
    k.frame = w.take();
    kinds.push_back(k);
  }
  {
    // Async STAGE (routes: targets) and PROBE (routes: join rules).
    FrameKind stage{"async-stage", 0, {2}, {}};
    RowFrameWriter w;
    w.section(0, 2, sorted_run(2, 30, 31));
    stage.frame = w.take();
    kinds.push_back(stage);
    FrameKind probe{"async-probe", 0, {2, 3}, {}};
    RowFrameWriter wp;
    wp.section(1, 3, sorted_run(3, 14, 32));
    wp.section(0, 2, sorted_run(2, 11, 33));
    probe.frame = wp.take();
    kinds.push_back(probe);
  }
  {
    // SSP probe and partial frames: the epoch word, then sections.
    FrameKind probe{"ssp-probe", 1, {2}, {}};
    RowFrameWriter w;
    w.word(5);
    w.section(0, 2, sorted_run(2, 20, 41));
    probe.frame = w.take();
    kinds.push_back(probe);
    FrameKind partial{"ssp-partial", 1, {2}, {}};
    RowFrameWriter wp;
    wp.word(5);
    Rows unsorted = sorted_run(2, 20, 42);
    std::reverse(unsorted.begin(), unsorted.end());  // hash-order partials
    wp.section(0, 2, unsorted);
    partial.frame = wp.take();
    kinds.push_back(partial);
  }
  return kinds;
}

/// Decode `frame` as its consumer does; throws FrameDecodeError on any
/// structural fault.
void consume(const FrameKind& kind, std::span<const std::byte> frame) {
  RowFrameReader r(frame);
  if (kind.header_words > 0 && r.done()) throw FrameDecodeError("no header word");
  for (std::size_t h = 0; h < kind.header_words; ++h) r.word();
  Rows rows;
  while (!r.done()) {
    rows.clear();
    const RowSection s = r.section(
        kind.arity_of_route.size(),
        [&](std::uint64_t route) { return kind.arity_of_route[route]; }, rows);
    ASSERT_LT(s.route, kind.arity_of_route.size());
    ASSERT_EQ(rows.size(), s.count * s.arity);
    ASSERT_LE(rows.size(), frame.size());  // never more values than bytes
  }
}

TEST(RowFrame, MutatedFramesDecodeOrThrowTyped) {
  std::mt19937_64 rng(20261017);
  for (const FrameKind& kind : frame_kinds()) {
    ASSERT_NO_THROW(consume(kind, kind.frame)) << kind.name;
    std::size_t decoded = 0, rejected = 0;
    const auto attempt = [&](const Bytes& mutant) {
      try {
        consume(kind, mutant);
        ++decoded;
      } catch (const FrameDecodeError&) {
        ++rejected;
      }
    };
    for (std::size_t i = 0; i < kind.frame.size(); ++i) {
      Bytes flip = kind.frame;
      flip[i] ^= static_cast<std::byte>(1 + rng() % 255);
      attempt(flip);
      attempt(Bytes(kind.frame.begin(), kind.frame.begin() + static_cast<std::ptrdiff_t>(i)));
      Bytes extend = kind.frame;
      extend.insert(extend.begin() + static_cast<std::ptrdiff_t>(i),
                    static_cast<std::byte>(rng() % 256));
      attempt(extend);
    }
    Bytes tail = kind.frame;
    for (int extra = 0; extra < 16; ++extra) {
      tail.push_back(static_cast<std::byte>(rng() % 256));
      attempt(tail);
    }
    EXPECT_EQ(decoded + rejected, 3 * kind.frame.size() + 16) << kind.name;
    EXPECT_GT(rejected, 0u) << kind.name;
  }
}

}  // namespace
}  // namespace paralagg::vmpi
