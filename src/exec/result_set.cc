#include "exec/result_set.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace skinner {

namespace {

int BitWidth(uint64_t v) { return v == 0 ? 0 : 64 - __builtin_clzll(v); }

/// A bucket no larger than this many keys is comparison-sorted as is (at
/// most 4 KiB of 4-word keys, in L1); a larger one is partitioned again.
constexpr size_t kMaxSortRun = 128;
/// The MSD partition aims at this many keys per bucket. Real JOB exports
/// get far larger buckets than n / 2^bits, because their leading columns
/// hold few distinct positions; with these two values they took about 30%
/// less time than with 32 keys per bucket and runs of up to 1024 keys...
constexpr size_t kBucketKeys = 8;
/// ...with at most 2^kMaxRadixBits buckets per partition.
constexpr int kMaxRadixBits = 16;

/// Partition width for n keys: about log2(n / kBucketKeys) bits.
int RadixBits(size_t n) {
  return std::clamp(BitWidth(n / kBucketKeys) - 1, 1, kMaxRadixBits);
}

/// A contiguous run of packed keys.
struct Span {
  const uint64_t* keys;
  size_t n;
};

/// A K-word key as one value, word 0 most significant.
template <size_t K>
struct Key {
  uint64_t w[K];
  bool operator<(const Key& o) const {
    for (size_t j = 0; j + 1 < K; ++j) {
      if (w[j] != o.w[j]) return w[j] < o.w[j];
    }
    return w[K - 1] < o.w[K - 1];
  }
};
/// Two words compare as one 128-bit integer, with no branch between them.
template <>
inline bool Key<2>::operator<(const Key& o) const {
  return ((static_cast<unsigned __int128>(w[0]) << 64) | w[1]) <
         ((static_cast<unsigned __int128>(o.w[0]) << 64) | o.w[1]);
}

/// Key sorting for one key-word count. K = 1..4 are compile-time constants
/// (keys move and compare as Key<K> values); K = 0 takes the count at run
/// time, for keys of five or more words, and sorts key indices instead.
template <size_t K>
class KeySorter {
 public:
  explicit KeySorter(size_t kw) : kw_(K != 0 ? K : kw) {}

  /// Sorts the keys of `src` (`n` in total, n > 0) into `dst` and drops
  /// adjacent duplicates in place; returns the number of distinct keys.
  size_t SortUnique(const std::vector<Span>& src, size_t n, uint64_t* dst) {
    // All keys equal (no differing bit): any bit puts them in one bucket.
    const int bit = std::max(FirstDifferingBit(src), 0);
    std::vector<size_t> start;
    Partition(src, n, bit, dst, &start);
    SortBuckets(dst, start);
    return Unique(dst, n);
  }

 private:
  size_t kw() const { return K != 0 ? K : kw_; }

  void CopyKey(const uint64_t* src, uint64_t* dst) const {
    for (size_t j = 0; j < kw(); ++j) dst[j] = src[j];
  }

  bool Less(const uint64_t* a, const uint64_t* b) const {
    for (size_t j = 0; j < kw(); ++j) {
      if (a[j] != b[j]) return a[j] < b[j];
    }
    return false;
  }

  bool Equal(const uint64_t* a, const uint64_t* b) const {
    for (size_t j = 0; j < kw(); ++j) {
      if (a[j] != b[j]) return false;
    }
    return true;
  }

  /// The first key bit (0 = most significant) on which two keys of `src`
  /// differ, or -1 when all keys are equal.
  int FirstDifferingBit(const std::vector<Span>& src) const {
    const uint64_t* first = nullptr;
    for (const Span& s : src) {
      if (s.n > 0) {
        first = s.keys;
        break;
      }
    }
    // A local accumulator for short keys, so it stays in registers.
    uint64_t fixed[K != 0 ? K : 1] = {};
    std::vector<uint64_t> dynamic(K != 0 ? 0 : kw(), 0);
    uint64_t* diff = K != 0 ? fixed : dynamic.data();
    for (const Span& s : src) {
      const uint64_t* key = s.keys;
      for (size_t i = 0; i < s.n; ++i, key += kw()) {
        for (size_t j = 0; j < kw(); ++j) diff[j] |= key[j] ^ first[j];
      }
    }
    for (size_t j = 0; j < kw(); ++j) {
      if (diff[j] != 0) {
        return static_cast<int>(j * 64) + __builtin_clzll(diff[j]);
      }
    }
    return -1;
  }

  /// Key bits [bit, bit + r) as an integer (bits past the key read as 0).
  uint64_t Window(const uint64_t* key, int bit, int r) const {
    const size_t w = static_cast<size_t>(bit) / 64;
    const int s = bit % 64;
    uint64_t v = key[w] << s;
    if (s != 0 && w + 1 < kw()) v |= key[w + 1] >> (64 - s);
    return v >> (64 - r);
  }

  /// Scatters the `n` keys of `src` into `dst` by bucket — key bits
  /// [bit, bit + RadixBits(n)), which order the keys since every key
  /// agrees on the bits above `bit` — keeping the source order within a
  /// bucket. `*start` receives the bucket boundaries (key indices).
  void Partition(const std::vector<Span>& src, size_t n, int bit,
                 uint64_t* dst, std::vector<size_t>* start) const {
    const int r = RadixBits(n);
    const size_t buckets = size_t{1} << r;
    std::vector<size_t>& pos = *start;
    pos.assign(buckets + 1, 0);
    for (const Span& s : src) {
      const uint64_t* key = s.keys;
      for (size_t i = 0; i < s.n; ++i, key += kw()) {
        ++pos[Window(key, bit, r) + 1];
      }
    }
    std::partial_sum(pos.begin(), pos.end(), pos.begin());
    std::vector<size_t> next(pos.begin(), pos.end() - 1);
    for (const Span& s : src) {
      const uint64_t* key = s.keys;
      for (size_t i = 0; i < s.n; ++i, key += kw()) {
        CopyKey(key, dst + next[Window(key, bit, r)]++ * kw());
      }
    }
  }

  void SortBuckets(uint64_t* keys, const std::vector<size_t>& start) {
    for (size_t b = 0; b + 1 < start.size(); ++b) {
      const size_t n = start[b + 1] - start[b];
      if (n > 1) SortRun(keys + start[b] * kw(), n);
    }
  }

  /// Sorts `n` keys in place: in cache by comparison when the run is
  /// small, else by one more partition (through `tmp_`) on the bits below
  /// the run's common prefix.
  void SortRun(uint64_t* keys, size_t n) {
    if (n <= kMaxSortRun) {
      CompareSort(keys, n);
      return;
    }
    const std::vector<Span> src = {{keys, n}};
    const int bit = FirstDifferingBit(src);
    if (bit < 0) return;
    tmp_.resize(std::max(tmp_.size(), n * kw()));
    std::vector<size_t> start;
    Partition(src, n, bit, tmp_.data(), &start);
    std::memcpy(keys, tmp_.data(), n * kw() * sizeof(uint64_t));
    SortBuckets(keys, start);
  }

  /// Comparison sort of a small run (at most kMaxSortRun keys), through a
  /// temporary array of typed keys.
  void CompareSort(uint64_t* keys, size_t n) {
    const size_t bytes = n * kw() * sizeof(uint64_t);
    if constexpr (K != 0) {
      run_.resize(n);
      std::memcpy(run_.data(), keys, bytes);
      std::sort(run_.begin(), run_.end());
      std::memcpy(keys, run_.data(), bytes);
    } else {
      // Sort key indices, then gather the keys in that order.
      order_.resize(n);
      std::iota(order_.begin(), order_.end(), 0u);
      std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
        return Less(keys + a * kw(), keys + b * kw());
      });
      gather_.resize(n * kw());
      for (size_t i = 0; i < n; ++i) {
        CopyKey(keys + order_[i] * kw(), gather_.data() + i * kw());
      }
      std::memcpy(keys, gather_.data(), bytes);
    }
  }

  size_t Unique(uint64_t* keys, size_t n) const {
    size_t distinct = 1;
    for (size_t i = 1; i < n; ++i) {
      const uint64_t* key = keys + i * kw();
      uint64_t* last = keys + (distinct - 1) * kw();
      if (Equal(key, last)) continue;
      if (i != distinct) CopyKey(key, last + kw());
      ++distinct;
    }
    return distinct;
  }

  size_t kw_;
  std::vector<uint64_t> tmp_;  // SortRun partitions
  std::vector<Key<K != 0 ? K : 1>> run_;  // CompareSort, K > 0
  std::vector<uint32_t> order_;           // CompareSort, K = 0
  std::vector<uint64_t> gather_;          // CompareSort, K = 0
};

}  // namespace

ResultSet::ResultSet(int width) {
  Layout(std::vector<int>(static_cast<size_t>(width), 32));
  bias_ = 0x80000000u;
}

ResultSet::ResultSet(const std::vector<int64_t>& cardinalities) {
  std::vector<int> bits;
  bits.reserve(cardinalities.size());
  for (int64_t card : cardinalities) {
    bits.push_back(card <= 1 ? 0 : BitWidth(static_cast<uint64_t>(card - 1)));
  }
  Layout(bits);
}

void ResultSet::Layout(const std::vector<int>& bits) {
  fields_.assign(bits.size(), Field{});
  int top = 0;  // key bit of the next field's top bit, 0 = most significant
  for (size_t c = 0; c < bits.size(); ++c) {
    const int b = bits[c];
    if (b == 0) continue;  // word 0, shift 0, mask 0: packs and reads 0
    Field& f = fields_[c];
    const int end = top + b;  // one past the field's last bit
    f.word = static_cast<uint32_t>(top / 64);
    f.mask = (uint64_t{1} << b) - 1;
    const int word_end = (top / 64 + 1) * 64;
    if (end <= word_end) {
      f.shift = static_cast<uint32_t>(word_end - end);
    } else {
      f.spill = static_cast<uint32_t>(end - word_end);
    }
    top = end;
  }
  kw_ = std::max<size_t>(1, (static_cast<size_t>(top) + 63) / 64);
}

ResultSet ResultSet::EmptyLike() const {
  ResultSet r;
  r.fields_ = fields_;
  r.bias_ = bias_;
  r.kw_ = kw_;
  return r;
}

bool ResultSet::SameLayout(const ResultSet& other) const {
  if (bias_ != other.bias_ || kw_ != other.kw_ ||
      fields_.size() != other.fields_.size()) {
    return false;
  }
  for (size_t c = 0; c < fields_.size(); ++c) {
    const Field& a = fields_[c];
    const Field& b = other.fields_[c];
    if (a.word != b.word || a.shift != b.shift || a.spill != b.spill ||
        a.mask != b.mask) {
      return false;
    }
  }
  return true;
}

void ResultSet::Grow() {
  const size_t words = std::max(words_.size() * 2, used_ + 16 * kw_);
  words_.reserve(words);
  words_.resize(words);  // zero-filled once per doubling, not per tuple
}

std::vector<PosTuple> ResultSet::ToVector() const {
  std::vector<PosTuple> out;
  out.reserve(size());
  ForEach([&](const int32_t* t) { out.emplace_back(t, t + width()); });
  return out;
}

void ResultSet::MergeSortedUnique(const std::vector<const ResultSet*>& parts,
                                  ResultSet* out) {
  size_t n = 0;
  std::vector<Span> src;
  src.reserve(parts.size());
  for (const ResultSet* p : parts) {
    assert(p->SameLayout(*out) && "MergeSortedUnique: layout mismatch");
    src.push_back({p->words_.data(), p->count_});
    n += p->count_;
  }
  if (n == 0) return;

  // Sort straight into the words after `out`'s existing keys.
  const size_t kw = out->kw_;
  if (out->used_ + n * kw > out->words_.size()) {
    out->words_.reserve(out->used_ + n * kw);
    out->words_.resize(out->words_.capacity());
  }
  uint64_t* dst = out->words_.data() + out->used_;
  size_t distinct;
  switch (kw) {
    case 1: distinct = KeySorter<1>(kw).SortUnique(src, n, dst); break;
    case 2: distinct = KeySorter<2>(kw).SortUnique(src, n, dst); break;
    case 3: distinct = KeySorter<3>(kw).SortUnique(src, n, dst); break;
    case 4: distinct = KeySorter<4>(kw).SortUnique(src, n, dst); break;
    default: distinct = KeySorter<0>(kw).SortUnique(src, n, dst); break;
  }
  out->used_ += distinct * kw;
  out->count_ += distinct;
}

}  // namespace skinner
