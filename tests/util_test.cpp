#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lane_transpose.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace olfui {
namespace {

TEST(BitVec, StartsCleared) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  EXPECT_EQ(v.find_first(), 130u);
}

TEST(BitVec, SetGetAcrossWordBoundaries) {
  BitVec v(200);
  for (std::size_t i : {0u, 63u, 64u, 127u, 128u, 199u}) {
    v.set(i, true);
    EXPECT_TRUE(v.get(i)) << i;
  }
  EXPECT_EQ(v.count(), 6u);
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.count(), 5u);
}

TEST(BitVec, FindNextSkipsAndFinds) {
  BitVec v(300);
  v.set(5, true);
  v.set(100, true);
  v.set(299, true);
  EXPECT_EQ(v.find_first(), 5u);
  EXPECT_EQ(v.find_next(6), 100u);
  EXPECT_EQ(v.find_next(101), 299u);
  EXPECT_EQ(v.find_next(300), 300u);
}

TEST(BitVec, SetAllRespectsTailMasking) {
  BitVec v(70);
  v.set_all(true);
  EXPECT_EQ(v.count(), 70u);
  v.flip();
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVec, BooleanAlgebra) {
  BitVec a(100), b(100);
  a.set(1, true);
  a.set(50, true);
  b.set(50, true);
  b.set(99, true);
  BitVec o = a;
  o |= b;
  EXPECT_EQ(o.count(), 3u);
  BitVec n = a;
  n &= b;
  EXPECT_EQ(n.count(), 1u);
  EXPECT_TRUE(n.get(50));
  BitVec x = a;
  x ^= b;
  EXPECT_EQ(x.count(), 2u);
  BitVec s = a;
  s.subtract(b);
  EXPECT_TRUE(s.get(1));
  EXPECT_FALSE(s.get(50));
}

TEST(BitVec, CountMatchesNaive) {
  Rng rng(7);
  BitVec v(517);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const bool bit = rng.next_bool();
    v.set(i, bit);
    expect += bit ? 1 : 0;
  }
  EXPECT_EQ(v.count(), expect);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, RoughlyUniform) {
  Rng rng(2);
  int buckets[8] = {};
  for (int i = 0; i < 8000; ++i) ++buckets[rng.next_below(8)];
  for (int b = 0; b < 8; ++b) EXPECT_GT(buckets[b], 700) << b;
}

TEST(Strings, SplitDropsEmptyPieces) {
  const auto parts = split("a,,b c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseUintDecimalAndHex) {
  EXPECT_EQ(parse_uint("1234"), 1234u);
  EXPECT_EQ(parse_uint("0x1F"), 0x1Fu);
  EXPECT_EQ(parse_uint("0x0007_8000"), 0x78000u);
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("12z").has_value());
  // Values past 2^64 - 1 are rejected, not wrapped.
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_uint("18446744073709551616").has_value());
  EXPECT_FALSE(parse_uint("0x1_0000_0000_0000_0000").has_value());
  EXPECT_FALSE(parse_uint("0x").has_value());
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(format("%04x", 0xAB), "00ab");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(214930), "214,930");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

TEST(Bits, Transpose64MatchesBitLoop) {
  std::uint64_t m[64], expect[64] = {};
  std::uint64_t x = 0x243F6A8885A308D3ULL;  // splitmix-ish fill
  for (auto& w : m) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    w = z ^ (z >> 27);
  }
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      if ((m[i] >> j) & 1ULL) expect[j] |= 1ULL << i;
  std::uint64_t t[64];
  std::copy(std::begin(m), std::end(m), std::begin(t));
  transpose64(t);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(t[i], expect[i]) << i;
  // Involution: transposing twice restores the original.
  transpose64(t);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(t[i], m[i]) << i;
}

/// Deterministic splitmix-ish word stream shared by the transpose tests.
std::vector<std::uint64_t> splitmix_words(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> out(n);
  std::uint64_t x = seed;
  for (auto& w : out) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    w = z ^ (z >> 27);
  }
  return out;
}

/// Bit (row r, column c) of a row-major W x W matrix stored K = W/64
/// words per row.
template <int W>
bool matrix_bit(const std::uint64_t* a, int r, int c) {
  constexpr int K = W / 64;
  return (a[r * K + c / 64] >> (c % 64)) & 1ULL;
}

template <int W>
void check_transpose_bits(std::uint64_t seed) {
  constexpr int K = W / 64;
  const std::vector<std::uint64_t> m =
      splitmix_words(static_cast<std::size_t>(W) * K, seed);
  std::vector<std::uint64_t> t = m;
  transpose_bits<W>(t.data());
  // Every bit lands mirrored across the diagonal: (r, c) -> (c, r).
  for (int r = 0; r < W; ++r)
    for (int c = 0; c < W; ++c)
      ASSERT_EQ(matrix_bit<W>(t.data(), c, r), matrix_bit<W>(m.data(), r, c))
          << "W=" << W << " r=" << r << " c=" << c;
  // Involution: transposing twice restores the original words.
  transpose_bits<W>(t.data());
  EXPECT_EQ(t, m) << "W=" << W;
}

TEST(Bits, TransposeBitsMirrorsAndInverts) {
  check_transpose_bits<64>(0x243F6A8885A308D3ULL);
  check_transpose_bits<128>(0x13198A2E03707344ULL);
  check_transpose_bits<256>(0xA4093822299F31D0ULL);
}

TEST(Bits, TransposeBits64MatchesTranspose64) {
  const std::vector<std::uint64_t> m = splitmix_words(64, 0x082EFA98EC4E6C89ULL);
  std::vector<std::uint64_t> a = m, b = m;
  transpose_bits<64>(a.data());
  transpose64(b.data());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace olfui
