#ifndef XORATOR_COMMON_SPAN_H_
#define XORATOR_COMMON_SPAN_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/lifetime.h"
#include "common/result.h"
#include "common/safe_math.h"

// Bounds-safe byte accessors for the data plane (DESIGN.md section 16).
//
// This header is the single place in the repository allowed to touch raw
// bytes with memcpy/memmove/pointer arithmetic (the `raw-bytes` lint rule
// in tools/lint enforces that for every decode-path file). Everything the
// engine decodes from disk or the wire — slotted pages, B+-tree nodes,
// WAL records, the varint row codec, XADT fragment directories — reads its
// bytes through one of three layers:
//
//   * `xo::Span<T>` — a pointer+length pair; its checked operations
//     (Subspan) fail closed with kCorruption instead of slicing out of
//     bounds.
//   * checked free functions (LoadU16/.../StoreU32/ViewBytes/CopyInto/
//     MoveWithin) — one-shot loads/stores at a caller-supplied offset,
//     every one validated against the span's length with overflow-proof
//     arithmetic (common/safe_math.h).
//   * `xo::BoundedReader` — a cursor that can never advance past the end:
//     ReadU*/ReadVarint/ReadBytes either return the value or fail closed
//     with kCorruption, and `position() <= size()` is a class invariant.
//
// Bytes are spelled `char` (not std::byte/uint8_t) because that is the
// currency of this codebase — std::string buffers, std::string_view
// views, PageRef::data() — and converting at every boundary would itself
// require the reinterpret_casts this layer exists to eliminate.
//
// Unchecked escape hatch: the `*Unchecked` functions at the bottom skip
// the range check for post-validation hot paths (RowView's accessors,
// whose offsets were all proven in-range by one up-front Parse). They
// assert in debug builds; a new call site needs the same "validated
// up front" argument or it belongs on the checked API.
//
// All multi-byte integers are little-endian on disk; every supported
// target is little-endian, and memcpy-based loads keep the accessors free
// of alignment UB either way.

namespace xo {

/// A non-owning pointer+length view over contiguous `T`s. The checked
/// subdivision operations return kCorruption instead of ever producing a
/// view outside [data, data+size). A Span borrows its storage: like
/// std::string_view, it must not outlive the owner (XO_GSL_POINTER makes
/// a span of a temporary owner a compile error under Clang).
template <typename T>
class XO_GSL_POINTER(T) Span {
 public:
  constexpr Span() = default;
  constexpr Span(T* data XO_LIFETIME_BOUND, size_t size)
      : data_(data), size_(size) {}

  constexpr T* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }

  /// Debug-asserted element access (release builds do not check; use the
  /// checked free functions for untrusted indices).
  constexpr T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  /// Checked slice [off, off+len): fails closed with kCorruption when the
  /// range escapes the span. Overflow-proof (off and len are validated
  /// independently against size()).
  [[nodiscard]] xorator::Result<Span> Subspan(size_t off, size_t len) const {
    if (off > size_ || len > size_ - off) {
      return xorator::Status::Corruption("span slice out of bounds");
    }
    return Span(data_ + off, len);
  }

  /// Implicit const view (Span<char> -> Span<const char>).
  constexpr operator Span<const T>() const {
    return Span<const T>(data_, size_);
  }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

/// The byte-span aliases the data plane trades in.
using ByteSpan = Span<const char>;
using MutableByteSpan = Span<char>;

/// A ByteSpan over a string_view's bytes (same storage, same lifetime).
inline ByteSpan SpanOf(std::string_view s XO_LIFETIME_BOUND) {
  return ByteSpan(s.data(), s.size());
}

namespace internal {
/// True when [off, off+len) lies inside a span of `size` bytes, phrased
/// so no intermediate sum can wrap.
constexpr bool InBounds(size_t size, size_t off, size_t len) {
  return off <= size && len <= size - off;
}
}  // namespace internal

// ---------------------------------------------------------------------------
// Checked fixed-width loads/stores (little-endian).
// ---------------------------------------------------------------------------

/// Loads a little-endian `T` at `off`; kCorruption when the field escapes
/// the span.
template <typename T>
[[nodiscard]] inline xorator::Result<T> LoadFixed(ByteSpan s, size_t off) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!internal::InBounds(s.size(), off, sizeof(T))) {
    return xorator::Status::Corruption("fixed-width load out of bounds");
  }
  T v;
  std::memcpy(&v, s.data() + off, sizeof(T));
  return v;
}

[[nodiscard]] inline xorator::Result<uint16_t> LoadU16(ByteSpan s,
                                                       size_t off) {
  return LoadFixed<uint16_t>(s, off);
}
[[nodiscard]] inline xorator::Result<uint32_t> LoadU32(ByteSpan s,
                                                       size_t off) {
  return LoadFixed<uint32_t>(s, off);
}

/// Stores a little-endian `T` at `off`; kCorruption when the field escapes
/// the span (the store is not performed).
template <typename T>
[[nodiscard]] inline xorator::Status StoreFixed(MutableByteSpan s, size_t off,
                                                T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!internal::InBounds(s.size(), off, sizeof(T))) {
    return xorator::Status::Corruption("fixed-width store out of bounds");
  }
  std::memcpy(s.data() + off, &v, sizeof(T));
  return xorator::Status::OK();
}

[[nodiscard]] inline xorator::Status StoreU16(MutableByteSpan s, size_t off,
                                              uint16_t v) {
  return StoreFixed<uint16_t>(s, off, v);
}
[[nodiscard]] inline xorator::Status StoreU32(MutableByteSpan s, size_t off,
                                              uint32_t v) {
  return StoreFixed<uint32_t>(s, off, v);
}
[[nodiscard]] inline xorator::Status StoreU64(MutableByteSpan s, size_t off,
                                              uint64_t v) {
  return StoreFixed<uint64_t>(s, off, v);
}

// ---------------------------------------------------------------------------
// Checked bulk views and copies.
// ---------------------------------------------------------------------------

/// A view of `len` bytes at `off`; kCorruption when the range escapes the
/// span. The view borrows the span's storage.
[[nodiscard]] inline xorator::Result<std::string_view> ViewBytes(
    ByteSpan s XO_LIFETIME_BOUND, size_t off, size_t len) {
  if (!internal::InBounds(s.size(), off, len)) {
    return xorator::Status::Corruption("byte range out of bounds");
  }
  return std::string_view(s.data() + off, len);
}

/// Copies `src` into the span at `off`; kCorruption when it does not fit
/// (nothing is written).
[[nodiscard]] inline xorator::Status CopyInto(MutableByteSpan dst, size_t off,
                                              std::string_view src) {
  if (!internal::InBounds(dst.size(), off, src.size())) {
    return xorator::Status::Corruption("byte copy out of bounds");
  }
  std::memcpy(dst.data() + off, src.data(), src.size());
  return xorator::Status::OK();
}

/// memmove within one span (entry shifts in B+-tree nodes); kCorruption
/// when either range escapes the span (nothing is moved).
[[nodiscard]] inline xorator::Status MoveWithin(MutableByteSpan s,
                                                size_t dst_off, size_t src_off,
                                                size_t len) {
  if (!internal::InBounds(s.size(), dst_off, len) ||
      !internal::InBounds(s.size(), src_off, len)) {
    return xorator::Status::Corruption("byte move out of bounds");
  }
  std::memmove(s.data() + dst_off, s.data() + src_off, len);
  return xorator::Status::OK();
}

/// Zero-fills [off, off+len); kCorruption when the range escapes the span.
[[nodiscard]] inline xorator::Status FillZero(MutableByteSpan s, size_t off,
                                              size_t len) {
  if (!internal::InBounds(s.size(), off, len)) {
    return xorator::Status::Corruption("byte fill out of bounds");
  }
  std::memset(s.data() + off, 0, len);
  return xorator::Status::OK();
}

// ---------------------------------------------------------------------------
// Append-side encode helpers (little-endian), so encode paths need no
// reinterpret_cast either.
// ---------------------------------------------------------------------------

/// Appends `v`'s little-endian bytes to `*out`.
template <typename T>
inline void AppendFixed(std::string* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

inline void AppendU16(std::string* out, uint16_t v) { AppendFixed(out, v); }
inline void AppendU32(std::string* out, uint32_t v) { AppendFixed(out, v); }
inline void AppendU64(std::string* out, uint64_t v) { AppendFixed(out, v); }

// ---------------------------------------------------------------------------
// BoundedReader: a cursor that cannot escape its bytes.
// ---------------------------------------------------------------------------

/// Sequential decoder over a byte buffer. Class invariant:
/// `position() <= size()` always; every Read*/Skip either consumes exactly
/// what it returns or fails closed with kCorruption and leaves the cursor
/// where it was. The reader borrows the buffer (XO_GSL_POINTER): views it
/// hands out (ReadBytes) share the buffer's lifetime, not the reader's.
class XO_GSL_POINTER(char) BoundedReader {
 public:
  BoundedReader() = default;
  explicit BoundedReader(std::string_view bytes XO_LIFETIME_BOUND)
      : bytes_(bytes) {}
  explicit BoundedReader(ByteSpan bytes XO_LIFETIME_BOUND)
      : bytes_(bytes.data(), bytes.size()) {}

  size_t position() const { return pos_; }
  size_t size() const { return bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  /// Moves the cursor to `pos`; kCorruption past the end.
  [[nodiscard]] xorator::Status SeekTo(size_t pos) {
    if (pos > bytes_.size()) {
      return xorator::Status::Corruption("seek past end of buffer");
    }
    pos_ = pos;
    return xorator::Status::OK();
  }

  /// Advances over `n` bytes; kCorruption when fewer remain.
  [[nodiscard]] xorator::Status Skip(size_t n) {
    if (n > remaining()) {
      return xorator::Status::Corruption("skip past end of buffer");
    }
    pos_ += n;
    return xorator::Status::OK();
  }

  /// Reads a little-endian fixed-width `T`; kCorruption when truncated.
  template <typename T>
  [[nodiscard]] xorator::Result<T> ReadFixed() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) {
      return xorator::Status::Corruption("truncated fixed-width field");
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] xorator::Result<uint8_t> ReadU8() {
    return ReadFixed<uint8_t>();
  }
  [[nodiscard]] xorator::Result<uint16_t> ReadU16() {
    return ReadFixed<uint16_t>();
  }
  [[nodiscard]] xorator::Result<uint32_t> ReadU32() {
    return ReadFixed<uint32_t>();
  }
  [[nodiscard]] xorator::Result<uint64_t> ReadU64() {
    return ReadFixed<uint64_t>();
  }

  /// Reads a LEB128 varint (common/varint.h wire format); kCorruption on a
  /// buffer ending mid-varint or a varint wider than 64 bits.
  [[nodiscard]] xorator::Result<uint64_t> ReadVarint() {
    uint64_t value = 0;
    unsigned shift = 0;
    size_t p = pos_;
    while (p < bytes_.size()) {
      const uint8_t byte = static_cast<uint8_t>(bytes_[p++]);
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        pos_ = p;
        return value;
      }
      shift += 7;
      if (shift > 63) {
        return xorator::Status::Corruption("varint too long");
      }
    }
    return xorator::Status::Corruption("truncated varint");
  }

  /// Returns the next `n` bytes and advances; kCorruption when fewer
  /// remain. The view borrows the underlying buffer.
  [[nodiscard]] xorator::Result<std::string_view> ReadBytes(size_t n)
      XO_LIFETIME_BOUND {
    if (n > remaining()) {
      return xorator::Status::Corruption("truncated byte field");
    }
    std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  /// Reads a varint length then that many bytes (the codec's string wire
  /// shape); kCorruption when the length outruns the buffer.
  [[nodiscard]] xorator::Result<std::string_view> ReadLengthPrefixedBytes()
      XO_LIFETIME_BOUND {
    const size_t before = pos_;
    auto len = ReadVarint();
    if (!len.ok()) return len.status();
    if (*len > remaining()) {
      pos_ = before;
      return xorator::Status::Corruption("length prefix outruns buffer");
    }
    return ReadBytes(static_cast<size_t>(*len));
  }

  /// The unread tail (borrows the underlying buffer).
  [[nodiscard]] std::string_view rest() const XO_LIFETIME_BOUND {
    return bytes_.substr(pos_);
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Post-validation accessors (debug-asserted, unchecked in release).
// ---------------------------------------------------------------------------

/// Load for offsets a validating pass already proved in range (RowView's
/// accessors after Parse). Asserts in debug; a release-build caller that
/// cannot point at its validating pass must use LoadFixed instead.
template <typename T>
inline T LoadFixedUnchecked(std::string_view s, size_t off) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(internal::InBounds(s.size(), off, sizeof(T)));
  T v;
  std::memcpy(&v, s.data() + off, sizeof(T));
  return v;
}

/// Store counterpart of LoadFixedUnchecked: for offsets the caller already
/// proved in range (constant header offsets, Fits()-guarded inserts).
template <typename T>
inline void StoreFixedUnchecked(MutableByteSpan s, size_t off, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(internal::InBounds(s.size(), off, sizeof(T)));
  std::memcpy(s.data() + off, &v, sizeof(T));
}

/// Zero-fill counterpart, same proven-in-range contract.
inline void FillZeroUnchecked(MutableByteSpan s, size_t off, size_t len) {
  assert(internal::InBounds(s.size(), off, len));
  std::memset(s.data() + off, 0, len);
}

}  // namespace xo

#endif  // XORATOR_COMMON_SPAN_H_
