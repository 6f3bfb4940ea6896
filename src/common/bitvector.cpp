#include "common/bitvector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fades::common {

BitVector::BitVector(std::size_t bitCount, bool fill)
    : bitCount_(bitCount), words_((bitCount + 63) / 64, fill ? ~0ULL : 0ULL) {
  if (fill && (bitCount & 63) != 0) {
    // Keep unused high bits zero so operator== and popcount stay exact.
    words_.back() &= (1ULL << (bitCount & 63)) - 1;
  }
}

void BitVector::setAll() {
  std::fill(words_.begin(), words_.end(), ~0ULL);
  if ((bitCount_ & 63) != 0 && !words_.empty()) {
    words_.back() &= (1ULL << (bitCount_ & 63)) - 1;
  }
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

void BitVector::copyBits(const BitVector& src, std::size_t srcOff,
                         BitVector& dst, std::size_t dstOff, std::size_t n) {
  assert(srcOff + n <= src.size() && dstOff + n <= dst.size());
  for (std::size_t k = 0; k < n; ++k) dst.set(dstOff + k, src.get(srcOff + k));
}

std::vector<std::uint8_t> BitVector::exportBytes(std::size_t bitOff,
                                                 std::size_t n) const {
  std::vector<std::uint8_t> out((n + 7) / 8, 0);
  exportBytesInto(bitOff, n, out);
  return out;
}

void BitVector::exportBytesInto(std::size_t bitOff, std::size_t n,
                                std::span<std::uint8_t> out) const {
  assert(bitOff + n <= bitCount_);
  const std::size_t nBytes = (n + 7) / 8;
  assert(out.size() >= nBytes);
  const unsigned shift = static_cast<unsigned>(bitOff & 63);
  std::size_t w = bitOff >> 6;
  std::size_t k = 0;
  while (k < nBytes) {
    std::uint64_t v = words_[w] >> shift;
    if (shift != 0 && w + 1 < words_.size()) {
      v |= words_[w + 1] << (64 - shift);
    }
    const std::size_t group = std::min<std::size_t>(8, nBytes - k);
    for (std::size_t j = 0; j < group; ++j) {
      out[k + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
    k += group;
    ++w;
  }
  if ((n & 7) != 0) {
    // Zero the tail bits past n, matching the per-bit exporter.
    out[nBytes - 1] &= static_cast<std::uint8_t>((1u << (n & 7)) - 1);
  }
}

void BitVector::importBytes(std::size_t bitOff, std::size_t n,
                            std::span<const std::uint8_t> bytes) {
  assert(bitOff + n <= bitCount_);
  assert(bytes.size() >= (n + 7) / 8);
  for (std::size_t k = 0; k < n; ++k) {
    set(bitOff + k, (bytes[k >> 3] >> (k & 7)) & 1u);
  }
}

std::uint64_t BitVector::getWord(std::size_t bitOff, unsigned n) const {
  assert(n <= 64 && bitOff + n <= bitCount_);
  if (n == 0) return 0;
  // At most two storage words: the one holding bitOff and, when the slice
  // straddles its end, the next.
  const std::size_t w = bitOff >> 6;
  const unsigned shift = static_cast<unsigned>(bitOff & 63);
  std::uint64_t v = words_[w] >> shift;
  if (shift + n > 64) v |= words_[w + 1] << (64 - shift);
  return n == 64 ? v : v & ((1ULL << n) - 1);
}

void BitVector::setWord(std::size_t bitOff, unsigned n, std::uint64_t value) {
  assert(n <= 64 && bitOff + n <= bitCount_);
  if (n == 0) return;
  const std::uint64_t mask = n == 64 ? ~0ULL : (1ULL << n) - 1;
  value &= mask;
  const std::size_t w = bitOff >> 6;
  const unsigned shift = static_cast<unsigned>(bitOff & 63);
  words_[w] = (words_[w] & ~(mask << shift)) | (value << shift);
  if (shift + n > 64) {
    const unsigned low = 64 - shift;  // bits that landed in words_[w]
    words_[w + 1] = (words_[w + 1] & ~(mask >> low)) | (value >> low);
  }
}

std::vector<std::size_t> BitVector::diff(const BitVector& other) const {
  assert(bitCount_ == other.bitCount_);
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t x = words_[w] ^ other.words_[w];
    while (x != 0) {
      const int b = std::countr_zero(x);
      out.push_back(w * 64 + static_cast<std::size_t>(b));
      x &= x - 1;
    }
  }
  return out;
}

std::string BitVector::toString(std::size_t bitOff, std::size_t n) const {
  std::string s;
  s.reserve(n);
  for (std::size_t k = 0; k < n; ++k) s.push_back(get(bitOff + k) ? '1' : '0');
  return s;
}

}  // namespace fades::common
