#include "util/bytes.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// The shared byte codec: every primitive round-trips, every truncation of
// every primitive fails and poisons the reader, and no count is trusted
// beyond the bytes that are actually there.

namespace rdfc {
namespace util {
namespace {

TEST(Fnv1aTest, MatchesReferenceVectors) {
  // Published FNV-1a-64 test vectors.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);
  // Chaining over pieces equals one pass over their concatenation.
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
  std::string le;
  ByteWriter(&le).U64(0x0102030405060708ull);
  EXPECT_EQ(Fnv1aU64(0x0102030405060708ull), Fnv1a(le));
}

TEST(ByteCodecTest, EveryPrimitiveRoundTrips) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.F64(-1234.5);
  w.Str("hello");
  w.Str("");
  w.Raw("raw", 3);
  w.U64Vector({7, std::numeric_limits<std::uint64_t>::max()});
  // Little-endian on the wire, whatever the host.
  EXPECT_EQ(bytes.substr(1, 4), std::string("\xef\xbe\xad\xde", 4));

  ByteReader r(bytes);
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0;
  std::string str = "x";
  std::string_view view = "x";
  std::string_view raw;
  std::vector<std::uint64_t> vec;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.F64(&f64));
  ASSERT_TRUE(r.Str(&str));
  ASSERT_TRUE(r.Str(&view));
  ASSERT_TRUE(r.Bytes(3, &raw));
  ASSERT_TRUE(r.U64Vector(&vec));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(f64, -1234.5);
  EXPECT_EQ(str, "hello");
  EXPECT_EQ(view, "");
  EXPECT_EQ(raw, "raw");
  EXPECT_EQ(vec, (std::vector<std::uint64_t>{
                     7, std::numeric_limits<std::uint64_t>::max()}));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

/// One primitive: its encoding, and a read of it from a reader.
struct Primitive {
  const char* name;
  std::function<void(ByteWriter*)> write;
  std::function<bool(ByteReader*)> read;
};

std::vector<Primitive> Primitives() {
  return {
      {"U8", [](ByteWriter* w) { w->U8(1); },
       [](ByteReader* r) {
         std::uint8_t v = 0;
         return r->U8(&v);
       }},
      {"U32", [](ByteWriter* w) { w->U32(0x01020304); },
       [](ByteReader* r) {
         std::uint32_t v = 0;
         return r->U32(&v);
       }},
      {"U64", [](ByteWriter* w) { w->U64(0x0102030405060708ull); },
       [](ByteReader* r) {
         std::uint64_t v = 0;
         return r->U64(&v);
       }},
      {"F64", [](ByteWriter* w) { w->F64(3.25); },
       [](ByteReader* r) {
         double v = 0;
         return r->F64(&v);
       }},
      {"Str", [](ByteWriter* w) { w->Str("payload"); },
       [](ByteReader* r) {
         std::string s;
         return r->Str(&s);
       }},
      {"StrView", [](ByteWriter* w) { w->Str("payload"); },
       [](ByteReader* r) {
         std::string_view s;
         return r->Str(&s);
       }},
      {"U64Vector",
       [](ByteWriter* w) { w->U64Vector({1, 2, 3}); },
       [](ByteReader* r) {
         std::vector<std::uint64_t> v;
         return r->U64Vector(&v);
       }},
      {"Bytes", [](ByteWriter* w) { w->Raw("abcdef", 6); },
       [](ByteReader* r) {
         std::string_view v;
         return r->Bytes(6, &v);
       }},
  };
}

TEST(ByteCodecTest, EveryTruncationFailsAndPoisons) {
  for (const Primitive& p : Primitives()) {
    std::string bytes;
    ByteWriter w(&bytes);
    p.write(&w);
    {
      ByteReader whole(bytes);
      EXPECT_TRUE(p.read(&whole)) << p.name;
      EXPECT_TRUE(whole.exhausted()) << p.name;
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      ByteReader r(std::string_view(bytes).substr(0, len));
      EXPECT_FALSE(p.read(&r)) << p.name << " prefix " << len;
      EXPECT_FALSE(r.ok()) << p.name << " prefix " << len;
      EXPECT_FALSE(r.exhausted()) << p.name << " prefix " << len;
      EXPECT_EQ(r.remaining(), 0u) << p.name << " prefix " << len;
      // Poisoned: even a read that would fit now fails.
      std::string_view none;
      EXPECT_FALSE(r.Bytes(0, &none)) << p.name << " prefix " << len;
    }
  }
}

TEST(ByteCodecTest, CountsBeyondRemainingAreRefused) {
  // A vector count and a string length each far larger than the bytes that
  // follow: refused up front, and nothing was allocated for them.
  std::string bytes;
  ByteWriter w(&bytes);
  w.U32(0xffffffffu);
  w.U64(1);
  std::vector<std::uint64_t> vec;
  ByteReader vec_reader(bytes);
  EXPECT_FALSE(vec_reader.U64Vector(&vec));
  EXPECT_EQ(vec.capacity(), 0u);
  EXPECT_FALSE(vec_reader.ok());

  std::string str;
  ByteReader str_reader(bytes);
  EXPECT_FALSE(str_reader.Str(&str));
  EXPECT_EQ(str.capacity(), std::string().capacity());
  EXPECT_FALSE(str_reader.ok());

  ByteReader bytes_reader(bytes);
  std::string_view view;
  EXPECT_FALSE(bytes_reader.Bytes(bytes.size() + 1, &view));
  EXPECT_FALSE(bytes_reader.ok());
}

}  // namespace
}  // namespace util
}  // namespace rdfc
