// Packed bit storage used for FPGA configuration memory, LUT truth tables,
// memory-block contents and read-back frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fades::common {

/// Fixed-capacity-after-construction packed bit vector with byte-level
/// import/export (configuration frames are transferred as bytes).
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bitCount, bool fill = false);

  std::size_t size() const { return bitCount_; }
  bool empty() const { return bitCount_ == 0; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::size_t i, bool v) {
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void flip(std::size_t i) { words_[i >> 6] ^= 1ULL << (i & 63); }

  void setAll();

  /// Number of set bits.
  std::size_t popcount() const;

  /// Bit-granular slice copy: dst[dstOff + k] = src[srcOff + k].
  static void copyBits(const BitVector& src, std::size_t srcOff,
                       BitVector& dst, std::size_t dstOff, std::size_t n);

  /// Export n bits starting at bitOff as packed little-endian bytes
  /// (bit k of the slice lands in byte k/8, bit position k%8).
  std::vector<std::uint8_t> exportBytes(std::size_t bitOff,
                                        std::size_t n) const;

  /// Allocation-free exportBytes: fills out[0 .. (n+7)/8) and leaves any
  /// remaining bytes of `out` untouched. Word-at-a-time, so configuration
  /// frames come out of the plane without a per-bit scan.
  void exportBytesInto(std::size_t bitOff, std::size_t n,
                       std::span<std::uint8_t> out) const;

  /// Import packed bytes (inverse of exportBytes).
  void importBytes(std::size_t bitOff, std::size_t n,
                   std::span<const std::uint8_t> bytes);

  /// Extract up to 64 bits starting at bitOff as an integer (bit 0 = LSB).
  /// Both word accessors touch at most two storage words.
  std::uint64_t getWord(std::size_t bitOff, unsigned n) const;
  void setWord(std::size_t bitOff, unsigned n, std::uint64_t value);

  bool operator==(const BitVector& other) const = default;

  /// Indices at which the two vectors differ (for delta-based
  /// reconfiguration and for tests). Sizes must match.
  std::vector<std::size_t> diff(const BitVector& other) const;

  /// Invoke fn(index) for every set bit, ascending. Fast word-skip scan;
  /// used by the device's connectivity rebuild over the configuration plane.
  template <typename Fn>
  void forEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t x = words_[w];
      while (x != 0) {
        fn(w * 64 + static_cast<std::size_t>(countrZero(x)));
        x &= x - 1;
      }
    }
  }

  /// "0101..." debug rendering of a bit range.
  std::string toString(std::size_t bitOff, std::size_t n) const;

 private:
  static int countrZero(std::uint64_t x) { return __builtin_ctzll(x); }

  std::size_t bitCount_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace fades::common
