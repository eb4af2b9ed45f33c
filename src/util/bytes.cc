#include "util/bytes.h"

#include <cstring>

namespace rdfc {
namespace util {

void ByteWriter::F64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

bool ByteReader::Bytes(std::size_t n, std::string_view* v) {
  if (!ok_ || n > bytes_.size() - pos_) {
    ok_ = false;
    return false;
  }
  *v = bytes_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::Fixed(int width, std::uint64_t* v) {
  std::string_view bytes;
  if (!Bytes(static_cast<std::size_t>(width), &bytes)) return false;
  *v = 0;
  for (int i = 0; i < width; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
          << (i * 8);
  }
  return true;
}

bool ByteReader::U8(std::uint8_t* v) {
  std::uint64_t wide = 0;
  if (!Fixed(1, &wide)) return false;
  *v = static_cast<std::uint8_t>(wide);
  return true;
}

bool ByteReader::U32(std::uint32_t* v) {
  std::uint64_t wide = 0;
  if (!Fixed(4, &wide)) return false;
  *v = static_cast<std::uint32_t>(wide);
  return true;
}

bool ByteReader::U64(std::uint64_t* v) { return Fixed(8, v); }

bool ByteReader::F64(double* v) {
  std::uint64_t bits = 0;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool ByteReader::Str(std::string_view* v) {
  std::uint32_t len = 0;
  return U32(&len) && Bytes(len, v);
}

bool ByteReader::Str(std::string* v) {
  std::string_view view;
  if (!Str(&view)) return false;
  v->assign(view);
  return true;
}

bool ByteReader::U64Vector(std::vector<std::uint64_t>* v) {
  std::uint32_t count = 0;
  if (!U32(&count)) return false;
  // Each element takes 8 bytes, so the input bounds any honest count:
  // nothing is allocated beyond what the bytes can actually hold.
  if (static_cast<std::uint64_t>(count) * 8 > remaining()) {
    ok_ = false;
    return false;
  }
  v->clear();
  v->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t e = 0;
    if (!U64(&e)) return false;
    v->push_back(e);
  }
  return true;
}

}  // namespace util
}  // namespace rdfc
