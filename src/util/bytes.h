#pragma once

// The one byte codec of the binary formats (docs/FORMATS.md "Encoding"):
// wire frames, the write-ahead journal, frozen images and checkpoint
// manifests all encode through ByteWriter, decode through ByteReader and
// checksum with Fnv1a.  Everything is little-endian and in memory — file
// and socket I/O stay with the durability layer and the network front end.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfc {
namespace util {

inline constexpr std::uint64_t kFnv1aOffset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ull;

/// Byte-wise FNV-1a-64 of `bytes`, continuing from `hash` (the offset basis
/// starts a fresh digest), so a digest can be chained over several pieces.
inline std::uint64_t Fnv1a(std::string_view bytes,
                           std::uint64_t hash = kFnv1aOffset) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Fnv1a over the 8 little-endian bytes of `v`.
inline std::uint64_t Fnv1aU64(std::uint64_t v,
                              std::uint64_t hash = kFnv1aOffset) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (i * 8)) & 0xff;
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Appends little-endian fields to a caller-owned string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Fixed(v, 4); }
  void U64(std::uint64_t v) { Fixed(v, 8); }
  void F64(double v);
  /// `s` prefixed by its u32 byte length.
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s);
  }
  /// `v` prefixed by its u32 element count.
  void U64Vector(const std::vector<std::uint64_t>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint64_t e : v) U64(e);
  }
  void Raw(std::string_view s) { out_->append(s); }
  void Raw(const void* data, std::size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

 private:
  void Fixed(std::uint64_t v, int width) {
    char buf[8];
    for (int i = 0; i < width; ++i) {
      buf[i] = static_cast<char>((v >> (i * 8)) & 0xff);
    }
    out_->append(buf, static_cast<std::size_t>(width));
  }

  std::string* out_;
};

/// Bounds-checked little-endian reader over borrowed bytes.  A read that
/// would run past the end fails and poisons the reader (every later read
/// fails too), so torn or hostile input decodes to an error, never to
/// garbage.  Callers bound a decoded count by remaining() before sizing
/// anything by it.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool U8(std::uint8_t* v);
  bool U32(std::uint32_t* v);
  bool U64(std::uint64_t* v);
  bool F64(double* v);
  /// A u32-length-prefixed string; the view borrows the input bytes.
  bool Str(std::string_view* v);
  bool Str(std::string* v);
  /// A u64 vector prefixed by its u32 element count.
  bool U64Vector(std::vector<std::uint64_t>* v);
  /// The next `n` bytes, without copying.
  bool Bytes(std::size_t n, std::string_view* v);

  bool ok() const { return ok_; }
  /// Bytes left to read (0 once poisoned).
  std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }
  /// True when every byte was read without a failure.
  bool exhausted() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool Fixed(int width, std::uint64_t* v);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace util
}  // namespace rdfc
