#ifndef SKINNER_SKINNER_PROGRESS_H_
#define SKINNER_SKINNER_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "engine/multiway_join.h"

namespace skinner {

/// Progress store for all join orders tried so far (the paper's progress
/// tracker, Figure 2). A trie over join-order prefixes; each node stores
/// the lexicographically largest frontier reached for its prefix by *any*
/// join order passing through it, which implements the paper's
/// shared-prefix fast-forwarding: a join order can resume from the most
/// advanced frontier of any order with the same prefix, because every
/// prefix combination lexicographically before that frontier has been
/// joined against all remaining tables already (suffix order irrelevant).
class ProgressTree {
 public:
  explicit ProgressTree(int num_tables) : num_tables_(num_tables) {}

  /// Records a suspended `state` for `order` (state.pos[0..depth] valid).
  /// Updates the frontier of every prefix of `order` and the exact state
  /// at the full-order node.
  void Backup(const std::vector<int>& order, const JoinState& state);

  /// Computes the most advanced resume state for `order`, considering the
  /// exact stored state and all shared-prefix frontiers. Returns false if
  /// nothing is stored (fresh start). On a frontier-based resume the
  /// frontier combination itself is re-enumerated (its subtree was in
  /// progress); the export merge (ResultSet::MergeSortedUnique) drops
  /// any re-emitted tuples.
  bool Restore(const std::vector<int>& order, JoinState* state) const;

  /// Number of trie nodes (paper Figure 8b).
  size_t num_nodes() const { return num_nodes_; }

 private:
  struct Node {
    std::map<int, std::unique_ptr<Node>> children;
    // Lex-max frontier for this prefix (length = prefix length).
    std::vector<int64_t> frontier;
    bool has_frontier = false;
    // Exact suspended state; only set on full-order nodes.
    JoinState exact;
    bool has_exact = false;
  };

  static bool LexLess(const std::vector<int64_t>& a,
                      const std::vector<int64_t>& b);

  int num_tables_;
  Node root_;
  size_t num_nodes_ = 1;
  std::vector<int64_t> frontier_;  // Backup's scratch prefix
};

/// Shared work-distribution and offset-publication board for parallel
/// Skinner-C. Every table's filtered position range [0, cardinality) is cut
/// into chunks — the units of leftmost-table work that workers claim and
/// steal. The layout is ragged: chunks start uniform, but SplitChunk()
/// subdivides a skew-dominated chunk's remaining range in place, so one hot
/// chunk stops serializing the endgame of a query. Per chunk it tracks:
///  - an atomic completed offset ("first position not yet fully joined"),
///    published by whichever worker ran the chunk and exported read-only to
///    the join loop through engine PublishedOffsets views, so ANY worker's
///    descend skips ranges ANY worker already exhausted;
///  - a ProgressTree of suspended states keyed by join order, so a stolen
///    chunk resumes exactly where its previous owner left it, for any
///    order tried so far; and
///  - an atomic step counter ("heat") workers bump after running the
///    chunk, which is the skew signal the engine's split policy reads.
///
/// Concurrency contract: offsets and heat are atomics (any thread, any
/// time; offsets only grow). A chunk's ProgressTree is owned by the single
/// worker that holds the chunk's claim; claims are handed out exclusively
/// within a slice and slices are separated by the engine's barrier, which
/// provides the happens-before edge between successive owners. SplitChunk
/// mutates the chunk list and the sorted views and is therefore legal ONLY
/// at that barrier (no worker running); everything else is slice-safe.
class SharedProgress {
 public:
  /// Initial chunking: `chunk_size` per table is chosen so the table
  /// yields about `target_chunks` chunks, floored at `min_chunk_rows` rows
  /// so tiny chunks don't drown the win in claim overhead. Every table —
  /// including a 0-row one — gets at least one chunk, so per-slice work
  /// lists are never empty for a still-incomplete table.
  SharedProgress(const std::vector<int64_t>& cardinalities, int num_tables,
                 int target_chunks, int64_t min_chunk_rows);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  /// Chunk ids are stable: [0, num_chunks) where splits append fresh ids.
  int num_chunks(int t) const {
    return static_cast<int>(tables_[static_cast<size_t>(t)].chunks.size());
  }
  int64_t chunk_lo(int t, int c) const { return chunk(t, c).lo; }
  int64_t chunk_hi(int t, int c) const { return chunk(t, c).hi; }
  int64_t chunk_offset(int t, int c) const {
    return chunk(t, c).offset.load(std::memory_order_relaxed);
  }
  bool ChunkComplete(int t, int c) const {
    return chunk_offset(t, c) >= chunk_hi(t, c);
  }
  /// The claiming worker's suspended-state store for one chunk.
  ProgressTree* chunk_progress(int t, int c) {
    return tables_[static_cast<size_t>(t)]
        .chunks[static_cast<size_t>(c)]
        ->progress.get();
  }

  /// Publishes that every position of `t` in [chunk_lo(t, c), p) is fully
  /// joined. Monotone: a lower p than already published is a no-op. Also
  /// advances the table's completed prefix across newly contiguous chunks.
  void Publish(int t, int c, int64_t p);

  /// Largest P such that every position < P of `t` is fully joined (the
  /// contiguous completed prefix; scattered completed chunks beyond it are
  /// visible through the per-chunk offsets / SkipCompleted instead). The
  /// cached value can under-advance when racing publications each miss the
  /// other's chunk — safe for its consumers (descend skipping is merely
  /// conservative) but never trusted for completion; see TableComplete.
  int64_t CompletedPrefix(int t) const {
    return tables_[static_cast<size_t>(t)].prefix.load(
        std::memory_order_relaxed);
  }
  /// True once every chunk of `t` is published complete. Checked against
  /// the per-chunk offsets (with the cached prefix as a fast path), NOT
  /// the prefix alone: two workers completing the last two chunks
  /// concurrently can each compute a stale prefix (no happens-before
  /// between their relaxed publications), and a completion check that
  /// trusted it would make the engine spin on empty slices forever. The
  /// coordinator asks after its slice barrier, which makes all chunk
  /// offsets visible.
  bool TableComplete(int t) const;
  /// True once some table is fully joined as a leftmost => result complete.
  bool AnyTableComplete() const;

  /// Table-indexed read-only views for MultiwayJoinSpec::published.
  const PublishedOffsets* views() const { return views_.data(); }

  /// Total suspended-state trie nodes across all chunks (stats).
  size_t num_progress_nodes() const;

  // ---- Adaptive splitting (see class comment for the barrier contract) --

  /// Accumulates `steps` of executed work on chunk `c` of `t` (workers,
  /// after each RunChunk; relaxed — the engine reads it at the barrier).
  void AddChunkSteps(int t, int c, uint64_t steps) {
    chunk(t, c).steps.fetch_add(steps, std::memory_order_relaxed);
  }
  uint64_t chunk_steps(int t, int c) const {
    return chunk(t, c).steps.load(std::memory_order_relaxed);
  }

  /// Splits chunk `c` of table `t` at the midpoint of its REMAINING range
  /// [offset, hi): the old chunk keeps [lo, mid) — and its progress tree,
  /// which stays valid because every stored state's leftmost position is
  /// bounded by the published offset < mid — while [mid, hi) becomes a
  /// fresh chunk (new id, fresh tree, offset = mid). Half the parent's
  /// heat moves to the child so a still-dominant half can split again.
  /// Requires >= 2 remaining positions; returns the new chunk id, or -1
  /// if the chunk cannot be split. Coordinator-only, at the slice barrier:
  /// rebuilds the table's position-sorted view.
  int SplitChunk(int t, int c);
  /// Total splits performed (stats: SkinnerCStats::chunk_splits).
  uint64_t num_splits() const { return num_splits_; }
  /// Still-incomplete chunks of `t` (the split policy's trigger input).
  int IncompleteChunks(int t) const;

 private:
  /// One leftmost-work unit. Heap-allocated so chunk addresses (and the
  /// atomics the published views point at) survive vector growth on split.
  struct Chunk {
    int64_t lo = 0;
    int64_t hi = 0;
    std::atomic<int64_t> offset{0};
    std::unique_ptr<ProgressTree> progress;
    std::atomic<uint64_t> steps{0};  // split-policy heat
  };

  struct TableState {
    int64_t card = 0;
    std::vector<std::unique_ptr<Chunk>> chunks;  // by stable chunk id
    /// Position-sorted parallel arrays backing the PublishedOffsets view
    /// and Publish()'s prefix walk. Rebuilt by SplitChunk (barrier-only).
    std::vector<int64_t> sorted_lo;
    std::vector<const std::atomic<int64_t>*> sorted_off;
    std::atomic<int64_t> prefix{0};
    /// Index into the sorted arrays of the first incomplete chunk.
    std::atomic<int> first_incomplete{0};
  };

  const Chunk& chunk(int t, int c) const {
    return *tables_[static_cast<size_t>(t)].chunks[static_cast<size_t>(c)];
  }
  Chunk& chunk(int t, int c) {
    return *tables_[static_cast<size_t>(t)].chunks[static_cast<size_t>(c)];
  }
  /// Recomputes the sorted arrays + view of `t` after a chunk mutation.
  void RebuildView(int t);

  std::vector<TableState> tables_;
  std::vector<PublishedOffsets> views_;
  uint64_t num_splits_ = 0;
};

}  // namespace skinner

#endif  // SKINNER_SKINNER_PROGRESS_H_
