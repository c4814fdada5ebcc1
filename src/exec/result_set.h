#ifndef SKINNER_EXEC_RESULT_SET_H_
#define SKINNER_EXEC_RESULT_SET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace skinner {

/// A join result tuple: one filtered position per table, in table order.
using PosTuple = std::vector<int32_t>;

/// Compact join-result accumulator shared by every engine (paper Figure 2:
/// the join phase emits tuple-index vectors). Each tuple is stored as one
/// bit-packed key of K 64-bit words, packed on Append: column c takes a
/// fixed field of bits, column 0 the most significant ones, and word 0 of
/// a key is its most significant word. Integer order on keys is therefore
/// lexicographic order on tuples. Keys sit back to back in a flat,
/// append-only buffer — no per-tuple allocation, exact byte accounting. A
/// ResultSet never deduplicates on its own and is single-threaded.
///
/// Engines that produce each tuple exactly once (Skinner-G/H commits,
/// baselines, forced-order engines) Append() straight into the output.
/// Skinner-C may re-emit a tuple when it resumes from a shared-prefix
/// frontier (paper 4.5) or when two workers cover overlapping work (4.4):
/// each of its workers appends to a private buffer with the output's
/// layout, duplicates included, and MergeSortedUnique() drops them once,
/// at export.
class ResultSet {
 public:
  /// Any int32_t per column: every column takes a 32-bit field holding
  /// the value with its sign bit flipped, so unsigned key order is signed
  /// value order. `width`: ints per tuple (= number of tables).
  explicit ResultSet(int width);

  /// Positions: column c holds values in [0, cardinalities[c]) and takes
  /// bit_width(cardinalities[c] - 1) bits (none when the cardinality is 0
  /// or 1), stored without offset.
  explicit ResultSet(const std::vector<int64_t>& cardinalities);

  /// An empty set with this set's layout.
  ResultSet EmptyLike() const;

  int width() const { return static_cast<int>(fields_.size()); }

  /// 64-bit words per packed tuple (at least 1).
  size_t key_words() const { return kw_; }

  /// Tuples stored, duplicates included.
  size_t size() const { return count_; }

  /// Exact heap footprint of the tuple buffer.
  size_t bytes() const { return words_.capacity() * sizeof(uint64_t); }

  void Append(const int32_t* tuple) {
    if (used_ + kw_ > words_.size()) Grow();
    uint64_t* key = words_.data() + used_;
    for (size_t j = 0; j < kw_; ++j) key[j] = 0;
    for (size_t c = 0; c < fields_.size(); ++c) {
      const Field& f = fields_[c];
      const uint64_t v = static_cast<uint32_t>(tuple[c]) ^ bias_;
      assert((v & ~f.mask) == 0 && "ResultSet::Append: value outside layout");
      if (f.spill == 0) {
        key[f.word] |= v << f.shift;
      } else {
        key[f.word] |= v >> f.spill;
        key[f.word + 1] |= v << (64 - f.spill);
      }
    }
    used_ += kw_;
    ++count_;
  }
  void Append(const PosTuple& tuple) { Append(tuple.data()); }

  /// Unpacks tuple `i` (append order) into `width()` ints at `tuple`.
  void Get(size_t i, int32_t* tuple) const {
    const uint64_t* key = words_.data() + i * kw_;
    for (size_t c = 0; c < fields_.size(); ++c) {
      const Field& f = fields_[c];
      uint64_t v;
      if (f.spill == 0) {
        v = key[f.word] >> f.shift;
      } else {
        v = (key[f.word] << f.spill) | (key[f.word + 1] >> (64 - f.spill));
      }
      tuple[c] = static_cast<int32_t>(static_cast<uint32_t>(v & f.mask) ^
                                      bias_);
    }
  }

  /// Visits every stored tuple, in append order, as a const int32_t* of
  /// `width` ints (unpacked into one reused buffer).
  template <class Fn>
  void ForEach(Fn&& fn) const {
    std::vector<int32_t> t(fields_.size());
    for (size_t i = 0; i < count_; ++i) {
      Get(i, t.data());
      fn(static_cast<const int32_t*>(t.data()));
    }
  }

  /// Materializes all tuples (ForEach order).
  std::vector<PosTuple> ToVector() const;

  /// Appends the distinct tuples of all `parts` to `out` in canonical
  /// (lexicographically sorted) order, so the export is the same for any
  /// split of the tuples into parts and any order within them. Every part
  /// and `out` must share one layout (see EmptyLike).
  ///
  /// Sorts the packed keys themselves, without unpacking them: one MSD
  /// partition of all n keys into about n/8 buckets on the bits just below
  /// the keys' common prefix, scattered straight into `out`'s buffer; then
  /// a comparison sort per bucket, in cache (a bucket too large for that
  /// is partitioned again the same way); then adjacent duplicates are
  /// dropped in place.
  static void MergeSortedUnique(const std::vector<const ResultSet*>& parts,
                                ResultSet* out);

 private:
  /// Where one column lives inside the packed key.
  struct Field {
    uint32_t word = 0;   // key word holding the field's top bit
    uint32_t shift = 0;  // left shift of the field in `word` (no spill)
    uint32_t spill = 0;  // low field bits that spill into `word + 1`
    uint64_t mask = 0;   // (1 << bits) - 1
  };

  ResultSet() = default;
  /// Lays out fields of the given bit widths, column 0 first.
  void Layout(const std::vector<int>& bits);
  bool SameLayout(const ResultSet& other) const;
  /// Grows the buffer geometrically so at least one more key fits.
  void Grow();

  std::vector<Field> fields_;
  uint32_t bias_ = 0;  // XORed into every field: 0x80000000 for any-int32
  size_t kw_ = 1;
  size_t count_ = 0;
  size_t used_ = 0;  // words holding keys; words_.size() is the capacity
  std::vector<uint64_t> words_;
};

}  // namespace skinner

#endif  // SKINNER_EXEC_RESULT_SET_H_
