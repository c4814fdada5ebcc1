#ifndef SKINNER_SKINNER_SKINNER_C_H_
#define SKINNER_SKINNER_SKINNER_C_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/scheduler.h"
#include "engine/multiway_join.h"
#include "exec/result_set.h"
#include "skinner/progress.h"
#include "uct/uct.h"

namespace skinner {

/// Reward functions for Skinner-C time slices (paper 4.5).
enum class RewardKind {
  /// Sum over join-order positions of the position delta scaled by the
  /// product of this and all preceding cardinalities (the paper's refined
  /// reward; default in SkinnerDB).
  kWeightedProgress,
  /// Fraction of the leftmost table processed during the slice (the
  /// simpler variant used in the formal analysis, Section 5.2).
  kLeftmostFraction,
};

struct SkinnerCOptions {
  /// Time slice budget b: outer-loop iterations of the multiway join per
  /// slice (paper default 500).
  int64_t slice_budget = 500;
  /// UCT exploration weight (paper uses 1e-6 for Skinner-C, whose rewards
  /// are small fractions).
  double uct_weight = 1e-6;
  SelectionPolicy policy = SelectionPolicy::kUct;
  RewardKind reward = RewardKind::kWeightedProgress;
  uint64_t seed = 42;
  /// Absolute virtual-clock deadline; the run aborts past it (used by the
  /// failure/disaster benchmarks to censor runaway baselines).
  uint64_t deadline = UINT64_MAX;
  /// Record per-slice convergence data (paper Figure 7); costs memory.
  bool collect_trace = false;
  /// Search-parallel Skinner-C (paper Section 4.4): each slice, all worker
  /// threads execute the same UCT-selected order on disjoint pieces of the
  /// leftmost table, rewards are merged (averaged) into the one shared
  /// tree, and the exported result is exact and identical (in canonical
  /// order) for any thread count. 1 = sequential; more workers share the
  /// leftmost table through a stealable chunk queue (see SkinnerCEngine).
  int num_threads = 1;
  /// Warm start (PreparedCache): seed the UCT tree's priors along this
  /// join order — typically the final order the signature's last execution
  /// converged to — before the first slice. The hinted path starts as the
  /// exploit choice; a few unrewarded slices un-seat a stale hint (see
  /// JoinOrderUct::SeedPriors). Empty = cold start. Learning remains
  /// per-execution, consistent with the paper.
  std::vector<int> warm_start_order;
  /// Worker pool the num_threads > 1 slice workers run on: each slice is
  /// one ParallelFor over the T workers, the calling thread taking part.
  /// T is always num_threads, whatever else the pool is running; a busy
  /// pool only means the caller runs more of the workers itself. Null runs
  /// the T workers one after another on the calling thread. Results are
  /// bit-identical either way.
  Scheduler* scheduler = nullptr;
};

struct SkinnerCStats {
  uint64_t slices = 0;
  size_t uct_nodes = 0;
  size_t progress_nodes = 0;
  /// Distinct result tuples exported.
  uint64_t result_tuples = 0;
  /// Tuples the workers emitted before the export merge, duplicates
  /// included (re-emits after resuming from a shared-prefix frontier or
  /// across workers); emitted_tuples - result_tuples were dropped there.
  uint64_t emitted_tuples = 0;
  /// Accumulated intermediate tuples produced (C_out actually paid),
  /// comparable to the traditional engines' counter (paper Tables 1/2).
  uint64_t intermediate_tuples = 0;
  bool timed_out = false;
  /// Adaptive chunk splits performed on the shared progress board (T>1
  /// only): skew-dominated leftmost chunks subdivided so the endgame keeps
  /// every worker busy.
  uint64_t chunk_splits = 0;
  /// Sum of every worker's private clock (T>1; equals the join cost at
  /// T=1). busy / (T * join cost) is parallel efficiency: the gap to 1 is
  /// workers idling at slice barriers while a straggler finishes.
  uint64_t worker_busy_cost = 0;
  std::vector<int> final_order;
  /// Sampled (slice, materialized UCT nodes) pairs; trace only.
  std::vector<std::pair<uint64_t, size_t>> tree_growth;
  /// Slice count per distinct join order chosen; trace only.
  std::map<std::vector<int>, uint64_t> order_selections;
  /// Bytes held in the workers' result buffers (exact: the capacity of
  /// their packed-key buffers, key_words() * 8 B per emitted tuple plus
  /// geometric-growth slack) plus estimated progress-tree and UCT-tree
  /// node costs.
  size_t auxiliary_bytes = 0;
  /// Per-slice auxiliary_bytes samples (trace only). Monotone
  /// non-decreasing: all three structures are append-only.
  std::vector<size_t> aux_bytes_trace;
};

/// Skinner-C (paper Section 4.5, Algorithms 2+3): regret-bounded query
/// evaluation on a customized engine. Drives the shared
/// engine/multiway_join step loop in small slices; a UCT policy picks the
/// join order per slice; per-table tuple offsets plus a shared-prefix
/// progress tree preserve and share progress across orders; rewards
/// measure per-slice progress. With num_threads > 1 the leftmost table's
/// range is partitioned across search workers (paper 4.4) through a
/// stealable chunk queue with shared offset publication: each table is cut
/// into chunks, workers claim chunks from their own block of the slice's
/// work list and steal from other blocks once it drains, and per-chunk
/// completed offsets are published so any worker's descend skips ranges
/// any worker already exhausted.
class SkinnerCEngine {
 public:
  SkinnerCEngine(const PreparedQuery* pq, const SkinnerCOptions& opts);
  SkinnerCEngine(const SkinnerCEngine&) = delete;
  SkinnerCEngine& operator=(const SkinnerCEngine&) = delete;

  /// Runs to completion (or deadline); appends the distinct result
  /// position tuples in canonical (lexicographically sorted) order —
  /// bit-identical for any num_threads or thread schedule.
  /// Workers append every emitted tuple to private buffers in `out`'s
  /// layout (so any `out` works) without dedup;
  /// ResultSet::MergeSortedUnique drops the duplicates once, at export.
  Status Run(ResultSet* out);

  const SkinnerCStats& stats() const { return stats_; }

 private:
  /// One search worker. Sequential execution (T=1) is a single worker
  /// owning every table's full range, with its offsets and progress tree
  /// here; with T>1 that state lives per chunk in the shared board and
  /// workers keep only cursors, state, clock, and the private result
  /// buffer. Everything a slice touches is reused: a slice allocates
  /// nothing unless it meets a new join order (cursor) or grows a progress
  /// tree.
  struct Worker {
    int id = 0;
    std::vector<int64_t> offset;  // T=1, per table: first not-fully-joined
    ProgressTree progress;        // T=1
    std::map<std::vector<int>, std::unique_ptr<JoinCursor>> cursors;
    JoinState state;  // position buffer a slice (or chunk) borrows
    VirtualClock clock;         // local; merged into the shared clock
    uint64_t merged_clock = 0;  // portion of `clock` already merged
    JoinLoopStats loop_stats;
    double slice_reward = 0;
    bool slice_done = false;
    /// Worker-private, append-only buffer of packed result keys in the
    /// output's layout (no locks and no dedup on the emit path); merged
    /// sorted-unique across workers at export.
    ResultSet local;

    Worker(int num_tables, const ResultSet& out)
        : progress(num_tables), local(out.EmptyLike()) {}
  };

  /// Creates the workers; their result buffers take `out`'s layout.
  void InitWorkers(const ResultSet& out);
  JoinCursor* CursorFor(Worker* w, const std::vector<int>& order);

  /// Resume state for `order` on the sequential worker, into `*state`:
  /// stored progress fast-forwarded past its offsets, or a fresh start.
  void RestoreState(Worker* w, const std::vector<int>& order,
                    JoinCursor* cursor, JoinState* state);

  /// Executes one budgeted slice of `order` on the sequential worker (T=1)
  /// via the shared multiway-join loop; records the slice reward and
  /// completion flag.
  void RunWorkerSlice(Worker* w, const std::vector<int>& order);

  // ---- Chunk-stealing path (T > 1) ----

  /// Adaptive chunk splitting (the skew endgame): when the slice's
  /// leftmost table has fewer incomplete chunks than workers, repeatedly
  /// split the hottest splittable chunk — heat is the steps workers spent
  /// in it, the signal that one chunk is eating the budget — until every
  /// worker can hold a chunk or nothing splittable remains. Runs between
  /// slices (no worker running), the only point where board mutation is
  /// legal.
  void AdaptiveSplit(int leftmost_table);

  /// Rebuilds the per-slice work list: the still-incomplete chunks of
  /// `order`'s leftmost table, cut into contiguous per-worker blocks.
  void BuildSliceWork(int leftmost_table);

  /// Claims the next chunk for `w`: from its own block first, then — when
  /// its block has drained — stealing from the other workers' blocks.
  /// Returns the chunk id, or -1 when no unclaimed work remains.
  int ClaimChunk(Worker* w);

  /// Runs one claimed chunk of `order` until the chunk's leftmost range is
  /// exhausted or `*budget_left` runs out; publishes completed offsets,
  /// stores the suspension in the chunk's progress tree, and returns the
  /// chunk's reward-potential increase.
  double RunChunk(Worker* w, const std::vector<int>& order, int chunk_id,
                  int64_t* budget_left);

  /// Resume state for `order` on one shared chunk, into `*state`: the
  /// chunk's stored progress fast-forwarded past its published offset and
  /// all published completed ranges of the deeper tables, or a fresh start
  /// at the chunk's offset.
  void RestoreChunkState(int chunk_id, const std::vector<int>& order,
                         JoinCursor* cursor, JoinState* state);

  /// Worker slice under stealing: claim chunks (own block, then steal)
  /// until the slice budget is spent or no work remains.
  void RunWorkerSliceStealing(Worker* w, const std::vector<int>& order);

  double ProgressValue(const std::vector<int>& order,
                       const JoinState& state) const;

  /// The slice reward potential of `state` under opts_.reward; the reward
  /// is the clamped increase of this potential over the slice.
  double RewardPotential(const std::vector<int>& order,
                         const JoinState& state) const;

  /// True once some table is fully joined as a leftmost table (=> result
  /// complete): the sequential worker's offset reached its cardinality, or
  /// all its chunks are published complete.
  bool CompletedTable() const;

  size_t AuxiliaryBytes() const;

  /// One parallel slice (num_threads > 1): prepares the slice's work list,
  /// then runs every worker's RunWorkerSliceStealing as one ParallelFor on
  /// opts_.scheduler. Returns once all workers finished, so UCT updates and
  /// clock merges between slices stay deterministic.
  void DispatchSlice(const std::vector<int>& order);

  const PreparedQuery* pq_;
  SkinnerCOptions opts_;
  JoinOrderUct uct_;
  std::vector<std::unique_ptr<Worker>> workers_;
  SkinnerCStats stats_;
  bool finished_ = false;

  /// Chunk-stealing shared state: the chunk/offset publication board, plus
  /// the per-slice work list of pending chunk ids of the slice's leftmost
  /// table. Blocks are claimed through per-worker atomic cursors; a
  /// fetch_add hands out each index exactly once, which makes claims (and
  /// steals) exclusive without locks.
  std::unique_ptr<SharedProgress> shared_;
  std::vector<int> work_ids_;
  std::unique_ptr<std::atomic<size_t>[]> work_next_;  // per worker
  std::vector<size_t> work_end_;                      // per worker block end
  int work_table_ = -1;
};

}  // namespace skinner

#endif  // SKINNER_SKINNER_SKINNER_C_H_
