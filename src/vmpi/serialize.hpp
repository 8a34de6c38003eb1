#pragma once

// Flat byte-buffer serialization.
//
// MPI moves contiguous 1-D buffers, so anything stored in a nested
// structure (the engine's B-trees) must be flattened before transmission
// (paper §IV-D).  These helpers, and the row frame (row_frame.hpp) that
// every rank-to-rank row move uses, are the only sanctioned way to build
// and parse such buffers; keeping them trivial makes the byte accounting
// in CommStats exact.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace paralagg::vmpi {

using Bytes = std::vector<std::byte>;

/// Append-only writer over a growable byte vector.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> vs) {
    const auto old = buf_.size();
    buf_.resize(old + vs.size_bytes());
    if (!vs.empty()) std::memcpy(buf_.data() + old, vs.data(), vs.size_bytes());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] bool empty() const { return buf_.empty(); }

  /// Relinquish the underlying buffer.
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Sequential reader over a byte span.  The caller asserts the framing; a
/// short read is a programming error, not a recoverable condition.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    assert(pos_ + sizeof(T) <= data_.size() && "buffer underrun");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void get_into(std::span<T> out) {
    assert(pos_ + out.size_bytes() <= data_.size() && "buffer underrun");
    if (!out.empty()) std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    pos_ += out.size_bytes();
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Zero-copy reader over a byte buffer holding a homogeneous element
/// stream.  Unlike BufferReader, `take_span` returns a *view* into the
/// buffer, so a raw-word body (a checkpoint file's rows, the hot-key
/// nominations) never materializes per-tuple copies.  Rows that cross
/// ranks use the row frame (row_frame.hpp) instead.  The buffer must
/// outlive every span taken from it, and its size must be an exact
/// multiple of sizeof(T).
template <typename T>
  requires std::is_trivially_copyable_v<T>
class TypedReader {
 public:
  explicit TypedReader(std::span<const std::byte> data)
      : data_(reinterpret_cast<const T*>(data.data()), data.size() / sizeof(T)) {
    assert(data.size() % sizeof(T) == 0 && "buffer is not a whole element stream");
    assert(reinterpret_cast<std::uintptr_t>(data.data()) % alignof(T) == 0 &&
           "buffer misaligned for element type");
  }

  T get() {
    assert(pos_ < data_.size() && "element stream underrun");
    return data_[pos_++];
  }

  [[nodiscard]] std::span<const T> take_span(std::size_t n) {
    assert(pos_ + n <= data_.size() && "element stream underrun");
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const T> data_;
  std::size_t pos_ = 0;
};

}  // namespace paralagg::vmpi
