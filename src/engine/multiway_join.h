#ifndef SKINNER_ENGINE_MULTIWAY_JOIN_H_
#define SKINNER_ENGINE_MULTIWAY_JOIN_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/prepared_query.h"
#include "exec/result_set.h"

namespace skinner {

/// Suspended execution state of the depth-first multiway join for one join
/// order (paper 4.5): the DFS depth plus the candidate position at every
/// depth <= depth. Positions live in join-order space: pos[d] indexes the
/// filtered rows of table order[d]. This tiny vector is the *entire*
/// execution state — the property that makes join order switching cheap.
struct JoinState {
  int depth = 0;
  std::vector<int64_t> pos;

  bool operator==(const JoinState& o) const {
    return depth == o.depth && pos == o.pos;
  }
};

/// An equality predicate instantiated for one join-order position: a
/// column of the step's table equals a column of the earlier table
/// `other_table`. Both columns are read through their join-key views.
struct EquiProbe {
  int other_table;
  const HashIndex* index;  // on the step table's column; null if not built
  JoinKeyView this_keys;   // the step table's column
  JoinKeyView other_keys;  // other_table's column
};

/// Everything needed to extend a join prefix by one table: the table, an
/// optional index-backed driving probe, remaining equality checks, and
/// generic (interpreted) predicate checks that become applicable here.
struct JoinStep {
  int table;
  /// The table's filtered base rows and their count, resolved once so the
  /// step loop binds a position with one load.
  const int32_t* rows = nullptr;
  int64_t card = 0;
  /// Driving probe (index-backed); -1 in `driver` means scan all positions.
  int driver = -1;  // index into eq: which equality drives candidate jumps
  std::vector<EquiProbe> eq;          // all equality preds to earlier tables
  std::vector<const Expr*> checks;    // generic newly applicable conjuncts
  /// Check() has anything to test: equalities beyond the driver, or
  /// generic checks.
  bool residual = false;
};

/// Compiles a left-deep join order into per-position steps. Step k joins
/// table order[k]; its predicates are exactly the conjuncts that become
/// checkable at position k (paper: "newly applicable predicates").
std::vector<JoinStep> BuildJoinSteps(const PreparedQuery& pq,
                                     const std::vector<int>& order);

/// Candidate enumeration and predicate checking for one join order. Used
/// by the traditional engines (run to completion) and by Skinner-C (run in
/// budgeted slices with suspend/resume). All execution progress lives in
/// the caller's position vector, which is what makes Skinner-C's
/// backup/restore cheap; the cursor keeps only a per-depth postings window
/// that is a pure accelerator (any call pattern gets the same answers).
class JoinCursor {
 public:
  JoinCursor(const PreparedQuery* pq, std::vector<JoinStep> steps);

  const std::vector<JoinStep>& steps() const { return steps_; }
  int num_steps() const { return static_cast<int>(steps_.size()); }

  /// Binds position `pos` of step `depth`'s table (records the base row
  /// for predicate evaluation). Must be called before Check/descend.
  void Bind(int depth, int64_t pos) {
    const JoinStep& s = steps_[static_cast<size_t>(depth)];
    binding_[static_cast<size_t>(s.table)] = s.rows[pos];
  }

  /// First candidate position >= `lower` at `depth` (given bindings for
  /// all earlier depths), or -1 if none. With a driving index this is the
  /// descend's one probe: it opens the depth's postings window on the
  /// driving key's run. Without one it is a plain scan start. Candidates
  /// satisfy the driving equality only; remaining predicates are left to
  /// Check().
  int64_t FirstCandidate(int depth, int64_t lower) const {
    const JoinStep& s = steps_[static_cast<size_t>(depth)];
    if (s.driver < 0) return lower < s.card ? lower : -1;
    const EquiProbe& p = s.eq[static_cast<size_t>(s.driver)];
    HashIndex::Postings run = Run(p);
    if (lower > 0) {
      const int32_t* it = std::lower_bound(run.begin(), run.end(),
                                           static_cast<int32_t>(lower));
      run = {it, static_cast<size_t>(run.end() - it)};
    }
    return Open(depth, p, run);
  }

  /// Next candidate position strictly greater than `pos`, or -1. O(1) when
  /// `pos` is the candidate the depth's window returned last and the
  /// driver's other table is still bound to the row the window was opened
  /// for; any other call (a caller that re-bound a shallower depth, or
  /// resumed at an arbitrary position) probes afresh and reopens the
  /// window.
  int64_t NextCandidate(int depth, int64_t pos) const {
    const JoinStep& s = steps_[static_cast<size_t>(depth)];
    if (s.driver < 0) return pos + 1 < s.card ? pos + 1 : -1;
    const EquiProbe& p = s.eq[static_cast<size_t>(s.driver)];
    Window& w = windows_[static_cast<size_t>(depth)];
    if (w.row != binding_[static_cast<size_t>(p.other_table)] ||
        *w.cur != pos) {
      return Open(depth, p, After(p, pos));
    }
    int64_t next = -1;
    if (++w.cur == w.end) {
      w.row = -1;
    } else {
      next = *w.cur;
    }
#ifndef NDEBUG
    const HashIndex::Postings fresh = After(p, pos);
    assert(next == (fresh.empty() ? -1 : fresh[0]) &&
           "postings window disagrees with a fresh probe");
#endif
    return next;
  }

  /// Checks all non-driving predicates of `depth` against the current
  /// bindings (depth's own position must already be bound).
  bool Check(int depth) const {
    return !steps_[static_cast<size_t>(depth)].residual ||
           CheckResidual(depth);
  }

  /// Base-row bindings indexed by table (valid for bound tables only).
  const std::vector<int64_t>& bindings() const { return binding_; }

  /// Routes predicate/UDF evaluation costs to `clock` instead of the
  /// prepared query's shared clock. Parallel Skinner-C workers point their
  /// cursors at per-worker clocks so charging stays race-free.
  void SetClock(VirtualClock* clock) { clock_override_ = clock; }

  /// The table-indexed tuple MultiwayJoinLoop fills and emits: one per
  /// cursor, so a loop run allocates nothing.
  PosTuple* emit_tuple() { return &tuple_; }

 private:
  /// One depth's open postings window: [cur, end) is a suffix of the
  /// driving key's postings run for the driver's other table's base row
  /// `row`, with *cur the candidate returned last. The index is frozen and
  /// a row's key never changes during a query, so a window stays valid for
  /// as long as `row` is bound: there is nothing to invalidate, only a row
  /// to compare.
  struct Window {
    const int32_t* cur = nullptr;
    const int32_t* end = nullptr;
    int64_t row = -1;  // -1: no open window
  };

  /// The driving key's postings run for the other table's current binding
  /// (empty for a NULL key): the one index probe.
  HashIndex::Postings Run(const EquiProbe& p) const {
    const int64_t row = binding_[static_cast<size_t>(p.other_table)];
    if (p.other_keys.IsNull(row)) return {};  // a NULL key matches nothing
    return p.index->Find(p.other_keys.Key(row));
  }

  /// The part of Run(p) strictly after `pos`.
  HashIndex::Postings After(const EquiProbe& p, int64_t pos) const {
    const HashIndex::Postings run = Run(p);
    const int32_t* it =
        std::upper_bound(run.begin(), run.end(), static_cast<int32_t>(pos));
    return {it, static_cast<size_t>(run.end() - it)};
  }

  /// Opens `depth`'s window on `rest` for the current binding of `p`'s
  /// other table and returns its first candidate, or closes it and returns
  /// -1 when `rest` is empty.
  int64_t Open(int depth, const EquiProbe& p,
               HashIndex::Postings rest) const {
    Window& w = windows_[static_cast<size_t>(depth)];
    if (rest.empty()) {
      w.row = -1;
      return -1;
    }
    w.cur = rest.begin();
    w.end = rest.end();
    w.row = binding_[static_cast<size_t>(p.other_table)];
    return *w.cur;
  }

  bool CheckResidual(int depth) const;

  const PreparedQuery* pq_;
  std::vector<JoinStep> steps_;
  std::vector<int64_t> binding_;        // base row per table
  mutable std::vector<Window> windows_;  // per depth
  VirtualClock* clock_override_ = nullptr;
  PosTuple tuple_;  // see emit_tuple()
};

/// Read-only view of one table's published completed offsets. Parallel
/// Skinner-C splits every table's position range into chunks — ragged,
/// not uniform: adaptive splitting subdivides skew-dominated chunks in
/// place — and publishes, per chunk, the first position not yet fully
/// joined when the table ran as a join order's leftmost
/// (skinner/progress.h owns the writable side). The join loop consults
/// the view on every descend so any worker can skip position ranges that
/// any worker — itself included — has already exhausted, instead of
/// rescanning from offset 0.
///
/// The view is two position-sorted parallel arrays: `lo[k]` is chunk k's
/// first position (lo[0] == 0, chunks tile [0, cardinality)), and
/// `offset[k]` points at its atomic published offset. The arrays are
/// rebuilt only at the engine's slice barrier (chunk splits), never while
/// a worker holds a view.
///
/// All offset loads are relaxed: published offsets only grow, and the
/// tuples they summarize are read only after the worker threads join, so
/// a stale read is merely conservative (some duplicate work, never a
/// missed result).
struct PublishedOffsets {
  /// Position-sorted chunk lower bounds.
  const int64_t* lo = nullptr;
  /// Per sorted chunk: its "first not-fully-joined position" (monotone).
  const std::atomic<int64_t>* const* offset = nullptr;
  int64_t cardinality = 0;
  size_t num_chunks = 0;

  /// Smallest position >= pos not known to be fully joined. Walks forward
  /// across contiguously completed chunks, so scattered completed regions
  /// (work stealing finishes chunks out of order) are skipped too.
  int64_t SkipCompleted(int64_t pos) const {
    if (lo == nullptr || num_chunks == 0) return pos;
    while (pos >= 0 && pos < cardinality) {
      // The chunk holding pos: largest k with lo[k] <= pos.
      const size_t k = static_cast<size_t>(
          std::upper_bound(lo, lo + num_chunks, pos) - lo) - 1;
      int64_t off = offset[k]->load(std::memory_order_relaxed);
      if (pos >= off) return pos;  // not known complete
      pos = off;  // [chunk lo, off) is fully joined
      const int64_t hi =
          k + 1 < num_chunks ? lo[k + 1] : cardinality;
      if (pos < hi) return pos;
      // The chunk is fully complete: fall through into the next chunk.
    }
    return pos;
  }
};

/// Why MultiwayJoinLoop returned.
enum class JoinLoopExit {
  kCompleted,  // leftmost range exhausted: every result tuple emitted
  kBudget,     // step budget used up; `state` holds the suspension point
  kDeadline,   // clock reached the deadline; `state` holds the suspension
};

/// Parameters of one loop run. The loop executes `order` depth-first:
/// advance the candidate at the current depth, probe/check it, descend on
/// success, backtrack on exhaustion (paper 4.5, Algorithm 3's inner loop).
struct MultiwayJoinSpec {
  /// Leftmost table range end: positions of order[0] in [state.pos[0],
  /// left_to) are processed. Parallel Skinner-C passes the end of the
  /// worker's claimed chunk.
  int64_t left_to = 0;
  /// Per-table (table-indexed) lower bounds for descend targets: depth d>0
  /// starts at FirstCandidate(d, lower[order[d]]). nullptr = all zeros.
  /// Skinner-C passes its per-table offsets (tuples below are fully
  /// joined); forced execution passes the Skinner-G exclusion bounds.
  const int64_t* lower = nullptr;
  /// Table-indexed published completed offsets (or nullptr): candidates at
  /// depth > 0 are bumped past any range some parallel worker has fully
  /// joined as a leftmost table. Parallel Skinner-C points this at its
  /// shared chunk-progress board; sequential engines leave it null.
  const PublishedOffsets* published = nullptr;
  /// Charged steps before suspension (Skinner-C time slice budget b).
  int64_t budget = INT64_MAX;
  /// Abort (kDeadline) once `clock` reaches this; checked per charged step.
  uint64_t deadline = UINT64_MAX;
  /// Cost model: Skinner-C charges every loop iteration (including
  /// backtracks) against budget and clock so a slice is exactly b ticks;
  /// the traditional engines tick only for candidate tests.
  bool charge_backtrack = false;
  /// Clock ticked per charged step (also receives predicate/UDF costs via
  /// the cursor's evaluation context).
  VirtualClock* clock = nullptr;
};

struct JoinLoopStats {
  /// Tuples that satisfied all predicates at every join prefix, i.e. the
  /// accumulated intermediate result cardinality (C_out) actually paid.
  uint64_t intermediate_tuples = 0;
  /// Charged steps (loop iterations under charge_backtrack, candidate
  /// tests otherwise).
  uint64_t steps = 0;
};

/// The depth-first multiway-join step loop shared by every engine. Runs
/// `order` from `state` until the leftmost range is exhausted, the budget
/// is spent, or the deadline passes. On suspension the state is normalized
/// (pending backtracks resolved) so it can be stored in a progress tree.
///
/// `state` contract on entry: pos[0..depth-1] passed their checks (they
/// are re-bound here); pos[depth] is the untested candidate, or -1/past
/// left_to if exhausted.
///
/// `emit(tuple)` receives each full result as a table-indexed PosTuple.
/// `left_advanced(p)` reports that every leftmost position < p is now
/// fully joined (Skinner-C advances its offset; others ignore it).
template <class EmitFn, class LeftFn>
JoinLoopExit MultiwayJoinLoop(JoinCursor* cursor, const std::vector<int>& order,
                              const MultiwayJoinSpec& spec, JoinState* state,
                              JoinLoopStats* stats, EmitFn&& emit,
                              LeftFn&& left_advanced) {
  const int m = static_cast<int>(order.size());
  VirtualClock* clock = spec.clock;
  std::vector<int64_t>& pos = state->pos;
  int i = state->depth;
  for (int d = 0; d < i; ++d) cursor->Bind(d, pos[static_cast<size_t>(d)]);

  // Borrowed from the cursor for the run (a local keeps it out of the
  // cursor's aliasing); every entry is set before each emit.
  PosTuple tuple = std::move(*cursor->emit_tuple());
  // Bumps a depth-d candidate past published fully-joined ranges: every
  // result tuple using such a position was already emitted when its table
  // ran as a leftmost, so re-enumerating it can only produce duplicates.
  // No-op at depth 0, where the caller's chunk claim bounds the range,
  // and when no publication board is attached.
  auto skip_published = [&](int d, int64_t cand) -> int64_t {
    if (spec.published == nullptr || d == 0) return cand;
    const PublishedOffsets& pub =
        spec.published[static_cast<size_t>(order[static_cast<size_t>(d)])];
    while (cand >= 0) {
      int64_t skip = pub.SkipCompleted(cand);
      if (skip == cand) break;
      cand = cursor->FirstCandidate(d, skip);
    }
    return cand;
  };
  int64_t steps = 0;
  JoinLoopExit exit = JoinLoopExit::kCompleted;
  bool done = false;
  bool suspended = false;
  while (true) {
    if (spec.charge_backtrack) {
      if (steps >= spec.budget) {
        exit = JoinLoopExit::kBudget;
        suspended = true;
        break;
      }
      ++steps;
      clock->Tick();
      if (clock->now() >= spec.deadline) {
        exit = JoinLoopExit::kDeadline;
        suspended = true;
        break;
      }
    }
    int64_t p = pos[static_cast<size_t>(i)];
    if (p < 0 || (i == 0 && p >= spec.left_to)) {
      // Exhausted at depth i: backtrack.
      if (i == 0) {
        // Leftmost exhausted: every tuple of its range fully joined.
        left_advanced(spec.left_to);
        done = true;
        break;
      }
      --i;
      int64_t old = pos[static_cast<size_t>(i)];
      pos[static_cast<size_t>(i)] =
          skip_published(i, cursor->NextCandidate(i, old));
      if (i == 0) left_advanced(old + 1);
      continue;
    }
    if (!spec.charge_backtrack) {
      ++steps;
      clock->Tick();
      if (clock->now() >= spec.deadline) {
        exit = JoinLoopExit::kDeadline;
        suspended = true;
        break;
      }
    }
    cursor->Bind(i, p);
    if (!cursor->Check(i)) {
      pos[static_cast<size_t>(i)] =
          skip_published(i, cursor->NextCandidate(i, p));
      continue;
    }
    ++stats->intermediate_tuples;
    if (i == m - 1) {
      for (int d = 0; d < m; ++d) {
        tuple[static_cast<size_t>(order[static_cast<size_t>(d)])] =
            static_cast<int32_t>(pos[static_cast<size_t>(d)]);
      }
      emit(tuple);
      pos[static_cast<size_t>(i)] =
          skip_published(i, cursor->NextCandidate(i, p));
      continue;
    }
    ++i;
    int64_t low = spec.lower == nullptr
                      ? 0
                      : spec.lower[static_cast<size_t>(
                            order[static_cast<size_t>(i)])];
    pos[static_cast<size_t>(i)] =
        skip_published(i, cursor->FirstCandidate(i, low));
  }
  if (suspended) {
    // Normalize the suspension point: resolve any pending backtracks so the
    // stored state has a valid candidate at every depth (keeps progress
    // frontiers meaningful). Costs nothing against budget or clock.
    while (i >= 0 && (pos[static_cast<size_t>(i)] < 0 ||
                      (i == 0 && pos[0] >= spec.left_to))) {
      if (i == 0) {
        left_advanced(spec.left_to);
        done = true;
        break;
      }
      --i;
      int64_t old = pos[static_cast<size_t>(i)];
      pos[static_cast<size_t>(i)] = cursor->NextCandidate(i, old);
      if (i == 0) left_advanced(old + 1);
    }
  }
  *cursor->emit_tuple() = std::move(tuple);
  stats->steps += static_cast<uint64_t>(steps);
  state->depth = std::max(i, 0);
  return done ? JoinLoopExit::kCompleted : exit;
}

}  // namespace skinner

#endif  // SKINNER_ENGINE_MULTIWAY_JOIN_H_
