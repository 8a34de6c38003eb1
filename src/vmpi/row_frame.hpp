#pragma once

// The row frame: the one wire format for row batches that cross ranks
// (DESIGN.md §6.2), and exchange_rows, which moves every flat
// single-relation batch (fact loads, reshuffles, hot-key moves, probe
// batches, serving's mutation rows) through it.
//
//   frame   := word* section*
//   section := route count row{count}
//   row     := column{arity}
//
// Every field is an unsigned LEB128 varint.  `word`s are optional frame
// headers (the SSP epoch).  `route` names what the rows are for (a target
// relation, a join rule, or a (destination, target) pair) and fixes the
// section's arity.  Each column is zigzag-delta encoded against the same
// column of the previous row of its section (the first row against 0), so
// a key-sorted run's leading column costs about a byte per row while
// unsorted rows still round-trip exactly.
//
// RowFrameReader owns every decode check and raises each as
// FrameDecodeError: a route out of range, a count larger than the bytes
// left divided by the arity (every column takes at least one byte), and a
// truncated or overlong varint.  A malformed frame can therefore never
// drive an allocation larger than the frame itself, or read past it.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "vmpi/fault.hpp"
#include "vmpi/serialize.hpp"

namespace paralagg::vmpi {

class Comm;

class RowFrameWriter {
 public:
  /// Append one header word.
  void word(std::uint64_t v);
  /// Append one section: `rows` is row-major, a multiple of `arity`.
  void section(std::uint64_t route, std::size_t arity, std::span<const std::uint64_t> rows);

  [[nodiscard]] bool empty() const { return buf_.empty(); }
  /// Relinquish the encoded frame (ready for the wire).
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// One decoded section header.
struct RowSection {
  std::uint64_t route = 0;
  std::size_t arity = 0;
  std::size_t count = 0;
};

class RowFrameReader {
 public:
  explicit RowFrameReader(std::span<const std::byte> frame)
      : pos_(frame.data()), end_(frame.data() + frame.size()) {}

  [[nodiscard]] bool done() const { return pos_ == end_; }

  /// Read one header word.
  std::uint64_t word();

  /// Read the next section and append its rows (count × arity values) to
  /// `out`.  `arity_of(route)` is called only for routes below `routes`.
  template <typename ArityOf>
  RowSection section(std::uint64_t routes, ArityOf&& arity_of,
                     std::vector<std::uint64_t>& out) {
    RowSection s;
    s.route = word();
    if (s.route >= routes) throw FrameDecodeError("row frame: route out of range");
    s.arity = arity_of(s.route);
    const std::uint64_t count = word();
    // Division form: a corrupt count must not overflow the multiply.
    if (count > remaining() / s.arity) {
      throw FrameDecodeError("row frame: row count overruns payload");
    }
    s.count = static_cast<std::size_t>(count);
    rows(s, out);
    return s;
  }

 private:
  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end_ - pos_); }
  void rows(const RowSection& s, std::vector<std::uint64_t>& out);

  const std::byte* pos_;
  const std::byte* end_;
};

/// A single-relation batch: one section (route 0) of `arity`-column rows;
/// no rows encode to an empty frame.
Bytes encode_rows(std::size_t arity, std::span<const std::uint64_t> rows);

/// Append the rows of a single-relation batch to `out`.
void decode_rows(std::span<const std::byte> frame, std::size_t arity,
                 std::vector<std::uint64_t>& out);

/// Move rows between ranks: `send[d]` holds row-major `arity`-column rows
/// for rank d.  Each remote buffer crosses as one row frame over
/// Comm::alltoallv, or over Comm::alltoallv_mailbox (where the fault plan
/// and the reliable channel reach it) when `faultable`; this rank's own
/// rows skip the codec.  Returns every arrival decoded and concatenated in
/// source order, this rank's rows in its own slot.  Collective.
std::vector<std::uint64_t> exchange_rows(Comm& comm, std::size_t arity,
                                         std::vector<std::vector<std::uint64_t>> send,
                                         bool faultable);

}  // namespace paralagg::vmpi
