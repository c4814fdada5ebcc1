#ifndef SKINNER_EXEC_RESULT_SET_H_
#define SKINNER_EXEC_RESULT_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skinner {

/// A join result tuple: one filtered position per table, in table order.
using PosTuple = std::vector<int32_t>;

/// Compact join-result accumulator shared by every engine (paper Figure 2:
/// the join phase emits tuple-index vectors). Tuples are fixed-width
/// int32_t position vectors stored back to back in a flat, append-only
/// buffer — no per-tuple allocation, exact byte accounting, cache-friendly
/// scans. A ResultSet never deduplicates on its own and is single-threaded.
///
/// Engines that produce each tuple exactly once (Skinner-G/H commits,
/// baselines, forced-order engines) Append() straight into the output.
/// Skinner-C may re-emit a tuple when it resumes from a shared-prefix
/// frontier (paper 4.5) or when two workers cover overlapping work (4.4):
/// each of its workers appends to a private buffer, duplicates included,
/// and MergeSortedUnique() drops them once, at export.
class ResultSet {
 public:
  /// `width`: ints per tuple (= number of tables).
  explicit ResultSet(int width) : width_(width) {}

  int width() const { return width_; }

  /// Tuples stored, duplicates included.
  size_t size() const { return count_; }

  /// Exact heap footprint of the tuple buffer.
  size_t bytes() const { return buffer_.capacity() * sizeof(int32_t); }

  void Append(const int32_t* tuple) {
    buffer_.insert(buffer_.end(), tuple, tuple + width_);
    ++count_;
  }
  void Append(const PosTuple& tuple) { Append(tuple.data()); }

  /// Visits every stored tuple, in append order, as a const int32_t* of
  /// `width` ints.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    const int32_t* t = buffer_.data();
    for (size_t i = 0; i < count_; ++i, t += width_) fn(t);
  }

  /// Materializes all tuples (ForEach order).
  std::vector<PosTuple> ToVector() const;

  /// Appends the distinct tuples of all `parts` to `out` in canonical
  /// (lexicographically sorted) order, so the export is the same for any
  /// split of the tuples into parts and any order within them. Every part
  /// and `out` must share one width.
  ///
  /// Each tuple is packed into a K-word integer key: column c keeps
  /// bit_width(max_c - min_c) bits of (value - min_c), with column 0 in the
  /// most significant bits, so integer order on keys is lexicographic
  /// order on tuples. The keys are LSD-radix-sorted in 11-bit digits
  /// (passes whose digit is the same for every key are skipped), adjacent
  /// equal keys are dropped, and the rest are unpacked into `out`.
  static void MergeSortedUnique(const std::vector<const ResultSet*>& parts,
                                ResultSet* out);

 private:
  int width_;
  size_t count_ = 0;
  std::vector<int32_t> buffer_;  // width-strided tuples
};

}  // namespace skinner

#endif  // SKINNER_EXEC_RESULT_SET_H_
