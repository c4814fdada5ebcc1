#ifndef SKINNER_EXEC_PREPARED_QUERY_H_
#define SKINNER_EXEC_PREPARED_QUERY_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/hash_util.h"
#include "common/status.h"
#include "expr/eval.h"
#include "query/query_info.h"
#include "sql/binder.h"

namespace skinner {

class PreparedCache;
class Scheduler;

/// Join key of a cell, normalized so that any two equality-joinable columns
/// produce comparable keys whenever `EvalPredicate` considers the values
/// equal, and so that dense id columns produce dense keys (HashIndex then
/// freezes them into its direct-address layout):
///  - strings use their dictionary code (the pool is database-wide);
///  - an int64 is its own two's-complement bits, exact over the whole
///    range, so int64-int64 equi-joins match exactly as Value::Compare
///    compares them;
///  - an integral double inside int64 range keys as that integer, so it
///    meets an int64 column on equal values, and -0.0 becomes 0 by
///    construction (the two zeros compare equal);
///  - any other double (fractional, beyond int64 range, infinite) takes a
///    key mixed from its bit pattern with bit 62 forced to the complement
///    of bit 63, i.e. a magnitude >= 2^62 read as int64: it can never
///    collide with an integer in [-2^53, 2^53].
///
/// Two documented limits of the 64-bit key space: (a) an int64 beyond 2^53
/// key-matches a double only when the double is exactly that integer,
/// while Value::Compare's lossy double promotion can call further pairs
/// equal; (b) a mixed key can in principle collide with an unrelated mixed
/// key or with an int64 of magnitude >= 2^62 (~2^-63 per pair) — engines
/// trust key equality on the driver predicate and do not re-verify with
/// EvalPredicate. NaN compares equal to every value in Value::Compare and
/// is out of the contract.
uint64_t JoinKeyOf(const Column& col, int64_t base_row);

/// The join keys of one column, resolved once per (table, column) so key
/// readers skip JoinKeyOf's per-cell type switch. For int64 and string
/// columns JoinKeyOf's key is the raw payload (the value, the dictionary
/// code), so the view reads the column's int64 array directly; a double
/// column keeps calling JoinKeyOf, the one definition of the key contract.
/// Valid as long as the column lives unchanged: a query's pinned catalog
/// version keeps its tables' columns alive, and writers change copies.
class JoinKeyView {
 public:
  JoinKeyView() = default;
  explicit JoinKeyView(const Column& col)
      : ints_(col.raw_ints().data()),
        nulls_(col.raw_nulls().empty() ? nullptr : col.raw_nulls().data()),
        doubles_(col.type() == DataType::kDouble ? &col : nullptr) {}

  bool IsNull(int64_t row) const {
    return nulls_ != nullptr && nulls_[static_cast<size_t>(row)] != 0;
  }
  uint64_t Key(int64_t row) const {
    return doubles_ == nullptr
               ? static_cast<uint64_t>(ints_[static_cast<size_t>(row)])
               : JoinKeyOf(*doubles_, row);
  }

  /// The raw keys (int64 and string columns), or null for a double column.
  const int64_t* raw_keys() const {
    return doubles_ == nullptr ? ints_ : nullptr;
  }
  /// The validity bytes (1 = NULL), or null when the column has no NULLs.
  const uint8_t* nulls() const { return nulls_; }

 private:
  const int64_t* ints_ = nullptr;
  const uint8_t* nulls_ = nullptr;
  const Column* doubles_ = nullptr;  // set for a double column only
};

/// Index over the *filtered positions* of one (table, column) pair: join
/// key -> ascending run of positions. Built during pre-processing for every
/// column that appears in an equality join predicate (paper 4.5: "we
/// create hash tables on all columns subject to equality predicates").
/// Sorted postings make Skinner-C's "jump to the next matching tuple index"
/// a step along one run (one binary search when resuming at an arbitrary
/// position), so execution state stays a plain index vector.
///
/// The constructor reads the (key, position) pairs of a join-key view over
/// the filtered rows and freezes them into one of two layouts over a
/// single postings arena that holds every key's ascending position run
/// contiguously. The choice is a pure function of the keys:
///  - Direct-address (dense keys): an offsets array of span + 1 uint32_t,
///    where span = max key - min key + 1 (keys read as int64); key k's
///    run is arena[offsets[k - min], offsets[k - min + 1]). Built by one
///    counting sort. A probe is one subtraction and one bounds check — no
///    hash, no tags, no probe chain. Chosen whenever the offsets array is
///    no larger than the Swiss table's slot and tag arrays would be.
///  - Swiss table (everything else): a flat open-addressing (linear
///    probing) table, tag-augmented in the Swiss-table style: an 8-bit tag
///    array (0 = empty, else the key hash's top 7 bits with the high bit
///    set) split from the {key, offset, len} payload slots. The split
///    layout keeps the probe path touching one dense byte per rejected
///    slot instead of a 16-byte payload.
/// Either layout is one cache miss per probe, allocation-free, and safely
/// shareable read-only across engines and worker threads.
///
/// Load factor: the Swiss table is sized to the next power of two holding
/// the indexed pairs at <= kMaxLoadPercent occupancy, so probe chains stay
/// short and every probe loop is guaranteed to hit an empty tag — Find()
/// can never spin on a full table (debug builds additionally assert a
/// probe counter never exceeds the capacity).
class HashIndex {
 public:
  /// Maximum Swiss-table occupancy: capacity is at least twice the indexed
  /// pair count (distinct keys <= pairs), i.e. load <= 50%.
  static constexpr size_t kMaxLoadPercent = 50;

  /// A key's ascending position run inside the shared arena. Empty (count
  /// 0) when the key is absent.
  struct Postings {
    const int32_t* data = nullptr;
    size_t count = 0;

    const int32_t* begin() const { return data; }
    const int32_t* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    int32_t operator[](size_t i) const { return data[i]; }
  };

  /// Builds the index of `keys` over the positions of `rows`: position p
  /// carries keys.Key(rows[p]), and NULL cells are skipped. The layout
  /// (see the class comment) is a pure function of those pairs, so an
  /// index is bit-identical however many pre-processing workers run.
  HashIndex(const JoinKeyView& keys, const std::vector<int32_t>& rows);

  /// The ascending position run for `key` (empty if no match).
  Postings Find(uint64_t key) const {
    if (direct()) return FindDirect(key);
    if (slots_.empty()) return {};
    return FindHashed(key, HashMix64(key));
  }

  size_t num_keys() const { return num_keys_; }
  /// Indexed (key, position) pairs: one per non-NULL key cell of the rows,
  /// i.e. the arena size. Pre-processing charges one cost unit per pair.
  size_t num_postings() const { return arena_.size(); }
  /// True when the constructor chose the direct-address layout.
  bool direct() const { return !offsets_.empty(); }
  /// Swiss-table slots (0 for an empty index or on the direct layout).
  size_t num_slots() const { return slots_.size(); }

  /// Order-sensitive hash of the frozen layout (offsets and key range, tags,
  /// slots, arena, mask): two indexes fingerprint equal iff they are
  /// bit-identical. The thread-count bit-identity property tests and
  /// bench_preprocess compare artifacts built at different worker counts
  /// through this.
  uint64_t Fingerprint() const;

  /// Exact heap footprint: the offsets array (direct layout) or the tag
  /// array and probe table (Swiss table), plus the postings arena.
  size_t bytes() const {
    return arena_.capacity() * sizeof(int32_t) +
           offsets_.capacity() * sizeof(uint32_t) +
           slots_.capacity() * sizeof(Slot) +
           tags_.capacity() * sizeof(uint8_t);
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t offset = 0;
    uint32_t len = 0;  // 0 = empty slot (every real key has >= 1 posting)
  };

  /// 7 hash bits with the high bit set, so a present tag is never the
  /// empty sentinel (0). Drawn from the top of the mixed hash: the slot
  /// index uses the low bits, so tag and index stay independent.
  static uint8_t TagOf(uint64_t h) {
    return static_cast<uint8_t>(0x80u | (h >> 57));
  }

  /// Direct-layout probe: keys outside [key_min_, key_min_ + span) wrap to
  /// a huge offset, so one unsigned compare is the whole bounds check.
  Postings FindDirect(uint64_t key) const {
    const uint64_t k = key - static_cast<uint64_t>(key_min_);
    if (k >= offsets_.size() - 1) return {};
    const uint32_t begin = offsets_[k];
    return {arena_.data() + begin, offsets_[k + 1] - begin};
  }

  /// Single-key probe with a precomputed hash. The probe sequence (linear
  /// from h & mask) is shared with BuildSwiss()'s insertion, which is what
  /// makes the tag filter a pure accelerator with identical results.
  Postings FindHashed(uint64_t key, uint64_t h) const {
    const uint8_t tag = TagOf(h);
    size_t i = h & mask_;
#ifndef NDEBUG
    size_t probes = 0;
#endif
    while (true) {
      const uint8_t t = tags_[i];
      if (t == 0) return {};
      if (t == tag) {
        const Slot& s = slots_[i];
        if (s.key == key) return {arena_.data() + s.offset, s.len};
      }
      i = (i + 1) & mask_;
#ifndef NDEBUG
      ++probes;
      assert(probes <= slots_.size() &&
             "HashIndex::Find probed every slot: load-factor invariant "
             "broken (table over-full)");
#endif
    }
  }

  /// The counting-sort freeze of the `n` pairs into the direct layout over
  /// `span` keys starting at key_min_.
  void BuildDirect(const JoinKeyView& keys, const std::vector<int32_t>& rows,
                   size_t n, size_t span);
  /// The 3-pass Swiss-table freeze of the `n` pairs at capacity `cap`.
  void BuildSwiss(const JoinKeyView& keys, const std::vector<int32_t>& rows,
                  size_t n, size_t cap);

  // Indexed key range, read as int64 (so small negative keys stay dense).
  int64_t key_min_ = INT64_MAX;
  int64_t key_max_ = INT64_MIN;
  // Direct layout: run bounds of keys key_min_ .. key_min_ + span - 1.
  std::vector<uint32_t> offsets_;  // span + 1 entries; empty = Swiss layout
  std::vector<Slot> slots_;
  std::vector<uint8_t> tags_;  // one per slot
  std::vector<int32_t> arena_;
  size_t mask_ = 0;
  size_t num_keys_ = 0;
};

/// The pre-processing artifact of ONE FROM-list table: the base rows
/// surviving its unary predicates plus hash indexes on each of its
/// equi-join columns (over the filtered positions). Immutable after
/// construction and shared by shared_ptr: the PreparedCache reuses
/// artifacts at table granularity, so any two executions that filter and
/// index a table the same way share one artifact.
struct TableArtifact {
  std::vector<int32_t> filtered;  // surviving base rows, ascending
  std::unordered_map<int, std::unique_ptr<HashIndex>> indexes;  // by column
  /// Virtual cost of building this artifact (filter scan + index inserts);
  /// charged only to the execution that actually built it.
  uint64_t build_cost = 0;

  /// Exact heap footprint (cache accounting): the filtered rows (sized to
  /// the survivors) plus every frozen index.
  size_t bytes() const;
};

/// Rows per filter-scan morsel: the unit of parallel pre-processing work.
/// Small enough that a handful of tables splits into far more morsels than
/// workers (good balance), large enough that per-morsel bookkeeping is
/// noise against evaluating predicates over 4096 rows.
constexpr int64_t kFilterMorselRows = 4096;

/// Deterministic makespan of list-scheduling `costs` (in order) onto
/// `threads` virtual workers: each task goes to the least-loaded worker
/// (ties to the lowest index); returns the maximum final load. This is the
/// virtual-cost model of parallel pre-processing: schedule-independent —
/// a pure function of the task costs and the CONFIGURED thread count, not
/// of how many pool workers actually showed up — and exactly the cost sum
/// when threads <= 1.
uint64_t ListScheduleMakespan(const std::vector<uint64_t>& costs, int threads);

/// Options controlling pre-processing.
struct PrepareOptions {
  bool build_hash_indexes = true;
  /// Pre-processing width (paper Table 2/6: SkinnerDB parallelizes the
  /// pre-processing step only). Every fresh table's scan splits into
  /// kFilterMorselRows morsels, so even a single-table query scales, and
  /// every (table, column) index is one build job; at width 1 each table
  /// is one filter job. The charged virtual cost is the deterministic list-scheduled
  /// makespan of the build tasks at exactly this width
  /// (ListScheduleMakespan), whatever else the scheduler is running.
  int width = 1;
  /// Worker pool hosting the build (common/scheduler.h); null runs it
  /// inline on the calling thread. Either way the charged costs and the
  /// artifact contents are identical — the pool only changes wall-clock
  /// time.
  Scheduler* scheduler = nullptr;
  /// Cross-query cache of per-table artifacts (exec/prepared_cache.h).
  /// Null: every table builds fresh, and no key is computed and no cache
  /// lock taken. Otherwise each table's artifact is keyed by
  /// TableArtifactKey and acquired through the cache's claim-all
  /// protocol; a cached table costs nothing, and a stale one that still
  /// holds under the table's logged row changes (Table::ChangesSince)
  /// costs one unit per change checked.
  PreparedCache* cache = nullptr;
};

/// Output of the pre-processor (paper Figure 2): per-table lists of base
/// rows surviving the unary predicates, plus hash indexes on equi-join
/// columns over those survivors. All engines execute in "position space":
/// position p of table t refers to base row filtered_rows(t)[p].
///
/// A PreparedQuery is the per-*execution* view over the pre-processing
/// output: query/info/pool pointers, this execution's virtual clock, and
/// one immutable TableArtifact per FROM-list table. The artifacts are
/// read-only, thread-shareable, and individually shared with the
/// cross-query PreparedCache (paper 4.5 does this work per query; per-table
/// reuse makes it free whenever a table is filtered the same way again).
class PreparedQuery {
 public:
  /// The pre-processing output of one execution: one shared TableArtifact
  /// per FROM-list table, plus where each came from.
  struct Data {
    std::vector<const Table*> tables;
    std::vector<std::shared_ptr<const TableArtifact>> artifacts;  // per table
    bool trivially_empty = false;
    /// Virtual cost charged to the preparing execution's clock: constant
    /// predicates plus the artifacts actually built for it (cached tables
    /// contribute nothing).
    uint64_t preprocess_cost = 0;
    /// Cache provenance (both 0 without a cache): tables served by the
    /// PreparedCache and tables built here on a cache miss. A false
    /// constant predicate builds and fetches nothing.
    int tables_from_cache = 0;
    int tables_reprepared = 0;
  };

  /// The one pre-processing core: evaluates the constant predicates, then
  /// obtains every table's artifact — from opts.cache where it holds one,
  /// otherwise by filtering and index building — charges the cost to
  /// `clock`, and returns an execution view over the result.
  ///
  /// Every built table goes through one builder and one cost model: the
  /// filter scans split into filter jobs across every built table (one per
  /// table at width 1, kFilterMorselRows morsels above it) and the index
  /// builds into one job per (table, column), and the charged cost is the
  /// list-scheduled makespan of the filter jobs plus that of the index
  /// jobs at opts.width (ListScheduleMakespan) — at width 1, the sum of
  /// the artifacts' build costs.
  static Result<std::unique_ptr<PreparedQuery>> Prepare(
      const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
      VirtualClock* clock, const PrepareOptions& opts);

  /// The pre-processing output (artifacts and provenance).
  const std::shared_ptr<const Data>& shared_data() const { return data_; }

  const BoundQuery& query() const { return *query_; }
  const QueryInfo& info() const { return *info_; }
  const StringPool& pool() const { return *pool_; }
  VirtualClock* clock() const { return clock_; }
  int num_tables() const { return static_cast<int>(data_->tables.size()); }
  const Table* table(int t) const {
    return data_->tables[static_cast<size_t>(t)];
  }
  const std::vector<const Table*>& tables() const { return data_->tables; }

  /// True if a constant predicate is false or some table has no survivors:
  /// the join result is empty without running any join.
  bool trivially_empty() const { return data_->trivially_empty; }

  const std::vector<int32_t>& filtered_rows(int t) const {
    return data_->artifacts[static_cast<size_t>(t)]->filtered;
  }
  int64_t cardinality(int t) const {
    return static_cast<int64_t>(filtered_rows(t).size());
  }
  int32_t base_row(int t, int64_t pos) const {
    return filtered_rows(t)[static_cast<size_t>(pos)];
  }

  /// Index over (table, column), or nullptr if none was built.
  const HashIndex* index(int t, int col) const;

  /// Join keys of (table, column), resolved once per Prepare: every key
  /// reader (index probes, join checks, the eddy baseline) reads these.
  const JoinKeyView& key_view(int t, int col) const {
    return key_views_[static_cast<size_t>(t)][static_cast<size_t>(col)];
  }

  /// Virtual cost this execution's pre-processing charged (0 when every
  /// table came from the PreparedCache and no constant predicate ran).
  uint64_t preprocess_cost() const { return data_->preprocess_cost; }

  /// Evaluation context bound to `rows` (one base row id per table).
  EvalContext MakeEvalContext(const int64_t* rows) const {
    EvalContext ctx;
    ctx.tables = &data_->tables;
    ctx.pool = pool_;
    ctx.rows = rows;
    ctx.clock = clock_;
    return ctx;
  }

 private:
  PreparedQuery() = default;

  const BoundQuery* query_ = nullptr;
  const QueryInfo* info_ = nullptr;
  const StringPool* pool_ = nullptr;
  VirtualClock* clock_ = nullptr;
  std::shared_ptr<const Data> data_;
  std::vector<std::vector<JoinKeyView>> key_views_;  // per table, per column
};

}  // namespace skinner

#endif  // SKINNER_EXEC_PREPARED_QUERY_H_
