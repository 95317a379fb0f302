#include "nn/layer.hpp"

#include <algorithm>
#include <cstring>

namespace pelican::nn {

namespace {

// xxHash64's primes and round (Collet): one multiply-rotate-multiply per
// 64-bit word. Four lanes keep four independent chains in flight.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;

constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

constexpr std::uint64_t mix(std::uint64_t acc, std::uint64_t word) noexcept {
  return rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t load_word(const std::byte* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

std::uint64_t hash_bytes(std::span<const std::byte> bytes,
                         std::uint64_t seed) noexcept {
  std::uint64_t lane[4] = {seed + kPrime1, seed + kPrime2, seed,
                           seed - kPrime1};
  const std::byte* p = bytes.data();
  const std::size_t words = bytes.size() / 8;
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      lane[j] = mix(lane[j], load_word(p + 8 * (w + j)));
    }
  }
  std::uint64_t h = rotl(lane[0], 1) + rotl(lane[1], 7) + rotl(lane[2], 12) +
                    rotl(lane[3], 18);
  for (; w < words; ++w) h = mix(h, load_word(p + 8 * w));
  const std::size_t tail = bytes.size() % 8;
  if (tail > 0) {
    std::uint64_t last = 0;
    std::memcpy(&last, p + 8 * words, tail);
    h = mix(h, last);
  }
  h = mix(h, bytes.size());
  h ^= h >> 33;
  h *= kPrime3;
  return h ^ (h >> 29);
}

}  // namespace

std::uint64_t LayerContent::hash() const noexcept {
  std::uint64_t h = hash_bytes(std::as_bytes(std::span(kind)), 0);
  h = hash_bytes(std::as_bytes(std::span(shape)), h);
  for (const auto& blob : blobs) h = hash_bytes(blob, h);
  return h;
}

std::size_t LayerContent::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& blob : blobs) total += blob.size();
  return total;
}

bool LayerContent::operator==(const LayerContent& other) const noexcept {
  return kind == other.kind && shape == other.shape &&
         std::equal(blobs.begin(), blobs.end(), other.blobs.begin(),
                    other.blobs.end(), [](const auto& a, const auto& b) {
                      return a.size() == b.size() &&
                             (a.empty() ||
                              std::memcmp(a.data(), b.data(), a.size()) == 0);
                    });
}

}  // namespace pelican::nn
