#include "src/common/serde.h"

#include <gtest/gtest.h>

namespace flicker {
namespace {

TEST(SerdeTest, RoundTripAllTypes) {
  Writer w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.Blob(BytesOf("blob data"));
  w.Str("a string");

  Reader r(w.Take());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.Blob(), BytesOf("blob data"));
  EXPECT_EQ(r.Str(), "a string");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, EmptyBlobAndString) {
  Writer w;
  w.Blob(Bytes());
  w.Str("");
  Reader r(w.Take());
  EXPECT_EQ(r.Blob(), Bytes());
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, TruncatedReadSetsError) {
  Writer w;
  w.U32(7);
  Bytes wire = w.Take();
  wire.pop_back();
  Reader r(wire);
  EXPECT_EQ(r.U32(), 0u);  // Soft-fails to zero.
  EXPECT_FALSE(r.ok());
}

TEST(SerdeTest, BlobLengthBeyondBufferSetsError) {
  Writer w;
  w.U32(1000);  // Claims a 1000-byte blob with no payload.
  Reader r(w.Take());
  EXPECT_EQ(r.Blob(), Bytes());
  EXPECT_FALSE(r.ok());
}

TEST(SerdeTest, ErrorIsSticky) {
  const Bytes one_byte{0x01};  // Reader keeps a reference: no temporary.
  Reader r(one_byte);
  (void)r.U32();  // Fails.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0);  // Still failing even though 1 byte exists.
  EXPECT_FALSE(r.ok());
}

TEST(SerdeTest, AtEndDetectsTrailingBytes) {
  Writer w;
  w.U8(1);
  w.U8(2);
  Reader r(w.Take());
  EXPECT_EQ(r.U8(), 1);
  EXPECT_FALSE(r.AtEnd());
  EXPECT_EQ(r.U8(), 2);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, NestedStructuresCompose) {
  Writer inner;
  inner.Str("nested");
  inner.U32(42);

  Writer outer;
  outer.Blob(inner.Take());
  outer.U8(9);

  Reader r(outer.Take());
  Bytes inner_wire = r.Blob();
  EXPECT_EQ(r.U8(), 9);
  ASSERT_TRUE(r.ok());

  Reader ri(inner_wire);
  EXPECT_EQ(ri.Str(), "nested");
  EXPECT_EQ(ri.U32(), 42u);
  EXPECT_TRUE(ri.AtEnd());
}

}  // namespace
}  // namespace flicker
