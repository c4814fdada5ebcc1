#ifndef SKINNER_COMMON_HASH_UTIL_H_
#define SKINNER_COMMON_HASH_UTIL_H_

#include <cstdint>

namespace skinner {

/// 64-bit mix (splitmix64 finalizer); good avalanche for hash table keys.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Combines a hash value into a running seed (boost::hash_combine style,
/// widened to 64 bits).
inline void HashCombine(uint64_t* seed, uint64_t v) {
  *seed ^= HashMix64(v) + 0x9E3779B97F4A7C15ull + (*seed << 6) + (*seed >> 2);
}

}  // namespace skinner

#endif  // SKINNER_COMMON_HASH_UTIL_H_
