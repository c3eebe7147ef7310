// Test oracle: per-lane bus I/O by bit-matrix transpose.
//
// SocFsimEnvironmentT reads and drives the system bus divergence-aware
// (lane 0's value plus the lanes that differ from it). These helpers are
// the straightforward per-lane formulation it replaced — transpose every
// bus to one value per machine and back — kept here as the reference the
// equivalence tests compare it against.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/packed.hpp"
#include "util/lanes.hpp"

namespace olfui {

/// In-place 64x64 bit-matrix transpose (Hacker's Delight fig. 7-3,
/// recursive block swap): after the call, bit j of a[i] is the old bit i
/// of a[j]. Flips between per-lane values (one word per machine) and
/// per-net lane words (one word per bus bit) in ~6*64 word ops instead of
/// a 64*64 single-bit loop.
inline void transpose64(std::uint64_t a[64]) {
  // LSB-first convention: column j of row i is bit j of a[i] (the classic
  // figure is MSB-first; the block swap is mirrored accordingly).
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// In-place W x W bit-matrix transpose, stored row-major as W rows of
/// W/64 words each: column c of row r is bit c%64 of a[r * (W/64) + c/64]
/// (same LSB-first convention as transpose64, which is the W == 64 case).
/// Wider widths decompose into 64x64 tiles: tile (J,I) of the result is
/// the transpose of tile (I,J) of the input, so diagonal tiles transpose
/// in place and off-diagonal pairs transpose-and-swap — K*K runs of
/// transpose64 instead of a W*W single-bit loop.
template <int W>
inline void transpose_bits(std::uint64_t* a) {
  static_assert(W > 0 && W % 64 == 0, "lane widths are multiples of 64");
  constexpr int K = W / 64;
  if constexpr (K == 1) {
    transpose64(a);
  } else {
    std::uint64_t ti[64], tj[64];
    for (int I = 0; I < K; ++I) {
      for (int r = 0; r < 64; ++r) ti[r] = a[(I * 64 + r) * K + I];
      transpose64(ti);
      for (int r = 0; r < 64; ++r) a[(I * 64 + r) * K + I] = ti[r];
      for (int J = I + 1; J < K; ++J) {
        for (int r = 0; r < 64; ++r) {
          ti[r] = a[(I * 64 + r) * K + J];
          tj[r] = a[(J * 64 + r) * K + I];
        }
        transpose64(ti);
        transpose64(tj);
        for (int r = 0; r < 64; ++r) {
          a[(I * 64 + r) * K + J] = tj[r];
          a[(J * 64 + r) * K + I] = ti[r];
        }
      }
    }
  }
}

/// Transposes W per-lane values (buses are at most 64 bits wide) onto the
/// per-bit lane words of a bus.
template <int W>
void drive_bus_lanes(
    PackedSimT<W>& sim, const Bus& bus,
    const std::array<std::uint64_t, static_cast<std::size_t>(W)>& lane_values) {
  // Row l = lane l's value; after the transpose row b bit l = lane l's
  // bit b, i.e. exactly the per-bit lane word.
  constexpr int K = W / 64;
  using Word = LaneWord<W>;
  std::array<std::uint64_t, static_cast<std::size_t>(W) * K> m{};
  for (int l = 0; l < W; ++l) m[static_cast<std::size_t>(l) * K] = lane_values[l];
  transpose_bits<W>(m.data());
  for (std::size_t b = 0; b < bus.size(); ++b) {
    Word w{};
    for (int k = 0; k < K; ++k) set_word_of(w, k, m[b * K + k]);
    sim.set_input_lanes(bus[b], w);
  }
}

/// Per-lane values of W lane words (one per bus bit).
template <int W, class Read>
std::array<std::uint64_t, W> transpose_to_lanes(std::size_t bits, Read read) {
  constexpr int K = W / 64;
  std::array<std::uint64_t, static_cast<std::size_t>(W) * K> m{};
  for (std::size_t b = 0; b < bits; ++b) {
    const LaneWord<W>& v = read(b);
    for (int k = 0; k < K; ++k) m[b * K + k] = word_of(v, k);
  }
  transpose_bits<W>(m.data());
  std::array<std::uint64_t, W> out{};
  for (int l = 0; l < W; ++l) out[l] = m[static_cast<std::size_t>(l) * K];
  return out;
}

/// Reads a bus back into per-lane values.
template <int W>
std::array<std::uint64_t, W> read_bus_lanes(const PackedSimT<W>& sim,
                                            const Bus& bus) {
  return transpose_to_lanes<W>(bus.size(), [&](std::size_t b) -> const auto& {
    return sim.value(bus[b]);
  });
}

/// Per-lane observed read of a port-cell bus (applies PO-pin injections).
template <int W>
std::array<std::uint64_t, W> read_observed_bus_lanes(
    const PackedSimT<W>& sim, const std::vector<CellId>& cells) {
  return transpose_to_lanes<W>(cells.size(),
                               [&](std::size_t b) -> const auto& {
                                 return sim.observed(cells[b]);
                               });
}

}  // namespace olfui
