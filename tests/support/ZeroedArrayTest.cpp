//===- tests/support/ZeroedArrayTest.cpp -----------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "support/ZeroedArray.h"

using namespace gengc;

namespace {

/// Reads the byte just past the last of \p Count elements at \p Data.
template <typename Atomic> void readPastTheEnd(const Atomic *Data, size_t Count) {
  const volatile unsigned char *End =
      reinterpret_cast<const volatile unsigned char *>(Data + Count);
  (void)*End;
}

TEST(ZeroedArray, StartsZeroed) {
  ZeroedArray<std::atomic<uint32_t>> Words(3000);
  for (size_t I = 0; I < 3000; ++I)
    EXPECT_EQ(Words[I].load(), 0u);
}

TEST(ZeroedArray, FirstAndLastElementsRoundTrip) {
  // 4097 bytes: neither the count nor the base is page-aligned.
  ZeroedArray<std::atomic<uint8_t>> Bytes(4097);
  Bytes[0].store(0x5A);
  Bytes[4096].store(0xA5);
  EXPECT_EQ(Bytes[0].load(), 0x5A);
  EXPECT_EQ(Bytes[4096].load(), 0xA5);
  EXPECT_EQ(&Bytes[4096], Bytes.data() + 4096);
}

TEST(ZeroedArray, ElementsAreAligned) {
  ZeroedArray<std::atomic<uint64_t>> Words(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Words.data()) % alignof(uint64_t),
            0u);
}

TEST(ZeroedArrayDeathTest, ByteAfterTheLastElementFaults) {
  // The guard page directly follows the last element, so even a one-byte
  // overrun of an odd-sized array faults, with or without a sanitizer.
  ZeroedArray<std::atomic<uint8_t>> Bytes(4097);
  EXPECT_DEATH(readPastTheEnd(Bytes.data(), 4097), "");
  ZeroedArray<std::atomic<uint32_t>> Words(1 << 16);
  EXPECT_DEATH(readPastTheEnd(Words.data(), 1 << 16), "");
}

} // namespace
