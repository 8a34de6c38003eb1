#include "vmpi/row_frame.hpp"

#include <algorithm>
#include <cassert>

#include "vmpi/comm.hpp"

namespace paralagg::vmpi {

namespace {

/// Signed deltas as small unsigned values: 0, -1, 1, -2, ... -> 0, 1, 2, 3.
std::uint64_t zigzag(std::uint64_t delta) {
  return (delta << 1) ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(delta) >> 63);
}

std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

/// The longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Column i's delta against the same column of the previous row.
std::uint64_t column_delta(std::span<const std::uint64_t> rows, std::size_t arity,
                           std::size_t i) {
  return zigzag(rows[i] - (i >= arity ? rows[i - arity] : 0));
}

}  // namespace

void RowFrameWriter::word(std::uint64_t v) {
  const std::size_t old = buf_.size();
  buf_.resize(old + kMaxVarintBytes);
  auto* const begin = reinterpret_cast<std::uint8_t*>(buf_.data() + old);
  buf_.resize(old + static_cast<std::size_t>(put_varint(begin, v) - begin));
}

void RowFrameWriter::section(std::uint64_t route, std::size_t arity,
                             std::span<const std::uint64_t> rows) {
  assert(arity > 0 && rows.size() % arity == 0 && "ragged row section");
  word(route);
  word(rows.size() / arity);
  // Encode a block at a time into its worst-case room, then cut back, so
  // the buffer grows with the encoded size rather than ten bytes a value.
  constexpr std::size_t kBlock = 256;
  for (std::size_t i = 0; i < rows.size();) {
    const std::size_t end = std::min(rows.size(), i + kBlock);
    const std::size_t old = buf_.size();
    buf_.resize(old + kMaxVarintBytes * (end - i));
    auto* const begin = reinterpret_cast<std::uint8_t*>(buf_.data() + old);
    std::uint8_t* p = begin;
    for (; i < end; ++i) p = put_varint(p, column_delta(rows, arity, i));
    buf_.resize(old + static_cast<std::size_t>(p - begin));
  }
}

std::uint64_t RowFrameReader::word() {
  // Most columns of a sorted run are one-byte deltas.
  if (pos_ != end_ && static_cast<std::uint8_t>(*pos_) < 0x80) {
    return static_cast<std::uint8_t>(*pos_++);
  }
  // Away from the frame's end a varint cannot run past it.
  const bool room = remaining() >= kMaxVarintBytes;
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    if (!room && pos_ == end_) throw FrameDecodeError("row frame: truncated varint");
    const auto b = static_cast<std::uint64_t>(*pos_++);
    // The tenth byte may only carry bit 63.
    if (shift == 63 && b > 1) throw FrameDecodeError("row frame: overlong varint");
    v |= (b & 0x7f) << shift;
    if (b < 0x80) return v;
  }
}

void RowFrameReader::rows(const RowSection& s, std::vector<std::uint64_t>& out) {
  const std::size_t n = s.count * s.arity;
  const std::size_t base = out.size();
  out.resize(base + n);
  std::uint64_t* dst = out.data() + base;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = (i >= s.arity ? dst[i - s.arity] : 0) + unzigzag(word());
  }
}

Bytes encode_rows(std::size_t arity, std::span<const std::uint64_t> rows) {
  if (rows.empty()) return {};
  RowFrameWriter w;
  w.section(0, arity, rows);
  return w.take();
}

void decode_rows(std::span<const std::byte> frame, std::size_t arity,
                 std::vector<std::uint64_t>& out) {
  RowFrameReader r(frame);
  while (!r.done()) r.section(1, [&](std::uint64_t) { return arity; }, out);
}

std::vector<std::uint64_t> exchange_rows(Comm& comm, std::size_t arity,
                                         std::vector<std::vector<std::uint64_t>> send,
                                         bool faultable) {
  const auto me = static_cast<std::size_t>(comm.rank());
  assert(send.size() == static_cast<std::size_t>(comm.size()) && "one buffer per rank");
  std::vector<Bytes> frames(send.size());
  for (std::size_t d = 0; d < send.size(); ++d) {
    if (d == me) continue;
    frames[d] = encode_rows(arity, send[d]);
    send[d] = std::vector<std::uint64_t>();  // the frame replaces it; free it now
  }
  const auto got = faultable ? comm.alltoallv_mailbox(std::move(frames))
                             : comm.alltoallv(std::move(frames));
  std::vector<std::uint64_t> out;
  for (std::size_t s = 0; s < got.size(); ++s) {
    if (s != me) {
      decode_rows(got[s], arity, out);
    } else if (out.empty()) {
      out = std::move(send[me]);
    } else {
      out.insert(out.end(), send[me].begin(), send[me].end());
    }
  }
  return out;
}

}  // namespace paralagg::vmpi
