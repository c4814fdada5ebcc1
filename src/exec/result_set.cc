#include "exec/result_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace skinner {

namespace {
constexpr int kDigitBits = 11;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;

int BitWidth(uint32_t v) {
  int bits = 0;
  for (; v != 0; v >>= 1) ++bits;
  return bits;
}

/// Digit `d` (key bits [11d, 11d + 11)) of a K-word key whose word 0 is
/// the least significant.
uint32_t Digit(const uint64_t* key, size_t kw, int d) {
  const size_t bit = static_cast<size_t>(d) * kDigitBits;
  const size_t w = bit / 64;
  const size_t off = bit % 64;
  uint64_t v = key[w] >> off;
  if (off > 64 - kDigitBits && w + 1 < kw) v |= key[w + 1] << (64 - off);
  return static_cast<uint32_t>(v & kDigitMask);
}

/// Key moves and compares with the word count known only at run time;
/// spelled out for short keys so they compile to plain loads and stores
/// rather than a memcpy/memcmp call per key.
void CopyKey(const uint64_t* src, size_t kw, uint64_t* dst) {
  switch (kw) {
    case 4: dst[3] = src[3]; [[fallthrough]];
    case 3: dst[2] = src[2]; [[fallthrough]];
    case 2: dst[1] = src[1]; [[fallthrough]];
    case 1: dst[0] = src[0]; return;
    default: std::memcpy(dst, src, kw * sizeof(uint64_t));
  }
}

bool KeysEqual(const uint64_t* a, const uint64_t* b, size_t kw) {
  for (size_t j = 0; j < kw; ++j) {
    if (a[j] != b[j]) return false;
  }
  return true;
}

/// Where one column lives inside the packed key.
struct Field {
  uint32_t min = 0;  // column minimum, as the bits of an int32
  int bits = 0;      // bit_width(max - min)
  int shift = 0;     // key bit of the column's least significant bit
};
}  // namespace

std::vector<PosTuple> ResultSet::ToVector() const {
  std::vector<PosTuple> out;
  out.reserve(size());
  ForEach([&](const int32_t* t) { out.emplace_back(t, t + width_); });
  return out;
}

void ResultSet::MergeSortedUnique(const std::vector<const ResultSet*>& parts,
                                  ResultSet* out) {
  size_t n = 0;
  for (const ResultSet* p : parts) {
    assert(p->width_ == out->width_ && "MergeSortedUnique: width mismatch");
    n += p->size();
  }
  if (n == 0) return;

  // Column ranges over the data decide each column's bit width.
  const size_t cols = static_cast<size_t>(out->width_);
  std::vector<int32_t> lo(cols, std::numeric_limits<int32_t>::max());
  std::vector<int32_t> hi(cols, std::numeric_limits<int32_t>::min());
  for (const ResultSet* p : parts) {
    p->ForEach([&](const int32_t* t) {
      for (size_t c = 0; c < cols; ++c) {
        lo[c] = std::min(lo[c], t[c]);
        hi[c] = std::max(hi[c], t[c]);
      }
    });
  }
  // The last column takes the least significant bits, column 0 the most.
  std::vector<Field> fields(cols);
  int total_bits = 0;
  for (size_t c = cols; c-- > 0;) {
    Field& f = fields[c];
    f.min = static_cast<uint32_t>(lo[c]);
    f.bits = BitWidth(static_cast<uint32_t>(hi[c]) - f.min);
    f.shift = total_bits;
    total_bits += f.bits;
  }
  const size_t kw = std::max(1, (total_bits + 63) / 64);  // key words

  // Pack.
  std::vector<uint64_t> keys(n * kw, 0);
  uint64_t* key = keys.data();
  for (const ResultSet* p : parts) {
    p->ForEach([&](const int32_t* t) {
      for (size_t c = 0; c < cols; ++c) {
        const Field& f = fields[c];
        if (f.bits == 0) continue;
        const uint64_t v = static_cast<uint32_t>(t[c]) - f.min;
        const int w = f.shift / 64;
        const int off = f.shift % 64;
        key[w] |= v << off;
        if (off + f.bits > 64) key[w + 1] |= v >> (64 - off);
      }
      key += kw;
    });
  }

  // LSD radix sort; one histogram sweep counts every digit position.
  const int passes = (total_bits + kDigitBits - 1) / kDigitBits;
  std::vector<size_t> hist(static_cast<size_t>(passes) * kBuckets, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* kp = keys.data() + i * kw;
    for (int d = 0; d < passes; ++d) {
      ++hist[static_cast<size_t>(d) * kBuckets + Digit(kp, kw, d)];
    }
  }
  std::vector<uint64_t> scratch(n * kw);
  for (int d = 0; d < passes; ++d) {
    size_t* h = hist.data() + static_cast<size_t>(d) * kBuckets;
    if (std::find(h, h + kBuckets, n) != h + kBuckets) continue;  // constant
    size_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t c = h[b];
      h[b] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t* src = keys.data() + i * kw;
      CopyKey(src, kw, scratch.data() + h[Digit(src, kw, d)]++ * kw);
    }
    keys.swap(scratch);
  }

  // Drop adjacent equal keys and unpack the rest into `out`.
  size_t distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* src = keys.data() + i * kw;
    if (distinct > 0 && KeysEqual(src, keys.data() + (distinct - 1) * kw, kw)) {
      continue;
    }
    if (i != distinct) CopyKey(src, kw, keys.data() + distinct * kw);
    ++distinct;
  }
  const size_t base = out->buffer_.size();
  out->buffer_.resize(base + distinct * cols);
  int32_t* t = out->buffer_.data() + base;
  for (size_t i = 0; i < distinct; ++i, t += cols) {
    const uint64_t* src = keys.data() + i * kw;
    for (size_t c = 0; c < cols; ++c) {
      const Field& f = fields[c];
      uint64_t v = 0;
      if (f.bits > 0) {
        const int w = f.shift / 64;
        const int off = f.shift % 64;
        v = src[w] >> off;
        if (off + f.bits > 64) v |= src[w + 1] << (64 - off);
        v &= (uint64_t{1} << f.bits) - 1;
      }
      t[c] = static_cast<int32_t>(f.min + static_cast<uint32_t>(v));
    }
  }
  out->count_ += distinct;
}

}  // namespace skinner
