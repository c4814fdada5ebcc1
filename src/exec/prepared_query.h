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

class Scheduler;

/// Per-builder staging shard for HashIndex construction. Append-only
/// (key, position) pairs stored in fixed-size heap blocks, so concurrent
/// index builds (parallel pre-processing builds one index per worker at
/// (table, column) granularity) never share a growing allocation: a
/// std::vector staging area reallocates-and-copies on growth and lets hot
/// append cursors of different workers land on one cache line, while each
/// shard here owns its blocks outright. Frozen into the index's single
/// contiguous postings arena by HashIndex::Build().
class StagingShard {
 public:
  /// 2048 pairs * 12-16 bytes ~= one 24 KiB block: large enough that
  /// block turnover is negligible, small enough that a tiny index does not
  /// overallocate by more than one block.
  static constexpr size_t kBlockPairs = 2048;

  void Append(uint64_t key, int32_t pos) {
    if (size_ == blocks_.size() * kBlockPairs) {
      blocks_.push_back(std::make_unique<Block>());
    }
    Block& b = *blocks_.back();
    b.pairs[size_ % kBlockPairs] = {key, pos};
    ++size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits every staged pair in append order.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    size_t remaining = size_;
    for (const auto& block : blocks_) {
      const size_t n = remaining < kBlockPairs ? remaining : kBlockPairs;
      for (size_t i = 0; i < n; ++i) {
        fn(block->pairs[i].first, block->pairs[i].second);
      }
      remaining -= n;
    }
  }

  /// Block-granular random access (the partitioned Build routes staged
  /// pairs morsel-by-morsel, one block per morsel, so workers touch
  /// disjoint blocks). block(b) is valid for b < num_blocks().
  size_t num_blocks() const { return (size_ + kBlockPairs - 1) / kBlockPairs; }
  const std::pair<uint64_t, int32_t>* block(size_t b) const {
    return blocks_[b]->pairs;
  }
  size_t block_size(size_t b) const {
    const size_t remaining = size_ - b * kBlockPairs;
    return remaining < kBlockPairs ? remaining : kBlockPairs;
  }

  /// Exact heap footprint (whole blocks; the unit of allocation).
  size_t bytes() const {
    return blocks_.size() * sizeof(Block) +
           blocks_.capacity() * sizeof(std::unique_ptr<Block>);
  }

  /// Frees every block (Build() releases staging so frozen indexes stop
  /// charging for build-time scratch).
  void Release() {
    std::vector<std::unique_ptr<Block>>().swap(blocks_);
    size_ = 0;
  }

 private:
  struct Block {
    std::pair<uint64_t, int32_t> pairs[kBlockPairs];
  };

  std::vector<std::unique_ptr<Block>> blocks_;
  size_t size_ = 0;
};

/// Hash index over the *filtered positions* of one (table, column) pair:
/// join key -> ascending run of positions. Built during pre-processing for
/// every column that appears in an equality join predicate (paper 4.5:
/// "we create hash tables on all columns subject to equality predicates").
/// Sorted postings make Skinner-C's "jump to the next matching tuple index"
/// a single binary search, so execution state stays a plain index vector.
///
/// Layout: a flat open-addressing (linear probing) table, tag-augmented in
/// the Swiss-table style: an 8-bit tag array (0 = empty, else the key
/// hash's top 7 bits with the high bit set) split from the {key, offset,
/// len} payload slots, over a single postings arena holding every key's
/// ascending position run contiguously. The split layout keeps the probe
/// path touching one dense byte per rejected slot instead of a 16-byte
/// payload, and FindBatch() pipelines many keys' probes so their cache
/// misses overlap. Compared to a node-based map of vectors this is one
/// cache miss per probe, allocation-free after Build(), and safely
/// shareable read-only across engines and worker threads.
///
/// Load factor: Build() sizes the table to the next power of two holding
/// the staged pairs at <= kMaxLoadPercent occupancy, so probe chains stay
/// short and every probe loop is guaranteed to hit an empty tag — Find()
/// can never spin on a full table (debug builds additionally assert a
/// probe counter never exceeds the capacity).
class HashIndex {
 public:
  /// Maximum occupancy enforced by Build(): capacity is at least twice the
  /// staged pair count (distinct keys <= pairs), i.e. load <= 50%.
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

  /// Stages one (key, position) pair. Positions for a given key must be
  /// added in ascending order (pre-processing scans positions 0..n), and
  /// all adds must precede Build() — a late Add would be silently dropped.
  void Add(uint64_t key, int32_t pos) {
    assert(!built_ && "HashIndex::Add after Build() would be dropped");
    staged_.Append(key, pos);
  }

  /// Freezes the staged pairs into the tag array + probe table + postings
  /// arena. Idempotent; must be called before Find().
  ///
  /// Algorithm selection is a pure function of the DATA, never of the
  /// execution width: small stagings run the classic 3-pass sequential
  /// build; stagings large enough for >= 2 home-slot partitions run the
  /// deterministic partitioned build (hash-partition the staged stream by
  /// home-slot range, fill each partition's slot range independently,
  /// spill boundary-crossing probe chains to a sequential pass), which the
  /// scheduler overload below can execute morsel-parallel. Either way the
  /// frozen layout — tags, slots, arena, bytes() — is bit-identical for
  /// every worker count, because the partition count and every insertion
  /// order within the algorithm depend only on the staged pairs.
  void Build() { Build(nullptr, 1); }

  /// As Build(), executing the partitioned phases on up to `max_threads`
  /// workers of `sched` (caller participates; null scheduler or width 1
  /// runs the same algorithm inline). Output is bit-identical to Build().
  void Build(Scheduler* sched, int max_threads);

  /// The ascending position run for `key` (empty if no match). The
  /// single-key probe; the batch entry point is FindBatch().
  Postings Find(uint64_t key) const {
    assert(built_ && "HashIndex::Find before Build() misses every key");
    if (slots_.empty()) return {};
    return FindHashed(key, HashMix64(key));
  }

  /// Batch probe: out[i] = Find(keys[i]) for i in [0, n). A software
  /// pipeline: hashing and tag/slot prefetching run a fixed distance ahead
  /// of resolution (overlapping the cache misses that bound single-key
  /// probe latency), and each hit's postings head is prefetched for the
  /// caller's binary-search jump. Results are bit-identical to per-key
  /// Find().
  void FindBatch(const uint64_t* keys, size_t n, Postings* out) const;

  size_t num_keys() const { return num_keys_; }
  /// Probe-table slots (0 before Build or for an empty index).
  size_t num_slots() const { return slots_.size(); }

  /// Order-sensitive hash of the frozen layout (tags, slots, arena, mask):
  /// two indexes fingerprint equal iff they are bit-identical. The
  /// thread-count bit-identity property tests and bench_preprocess compare
  /// artifacts built at different worker counts through this.
  uint64_t Fingerprint() const;

  /// Exact heap footprint. Before Build() this is dominated by the staging
  /// shard's blocks; Build() releases the staging blocks, so the frozen
  /// index accounts for exactly the tag array, the probe table and the
  /// postings arena.
  size_t bytes() const {
    return arena_.capacity() * sizeof(int32_t) +
           slots_.capacity() * sizeof(Slot) +
           tags_.capacity() * sizeof(uint8_t) + staged_.bytes();
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

  /// Single-key probe with a precomputed hash. The probe sequence (linear
  /// from h & mask) is shared with Build()'s insertion, which is what makes
  /// the tag filter a pure accelerator with identical results.
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

  /// Slots per home-slot partition of the partitioned build; the staged
  /// stream is routed by home slot / kPartitionSlots. Chosen so one
  /// partition's slot+tag region (~64 KiB slots + 4 KiB tags) stays
  /// cache-resident while a worker fills it.
  static constexpr size_t kPartitionSlots = size_t{1} << 12;
  static constexpr size_t kMaxPartitions = 64;
  /// Partition count for a capacity: a pure function of the data-derived
  /// table size (NEVER of worker count — determinism depends on it).
  static size_t NumPartitions(size_t cap) {
    const size_t p = cap / kPartitionSlots;
    return p < kMaxPartitions ? p : kMaxPartitions;
  }
  /// The classic 3-pass sequential freeze (small stagings).
  void BuildSequential();
  /// The deterministic partitioned freeze (>= 2 partitions; optionally
  /// morsel-parallel over `sched`).
  void BuildPartitioned(size_t cap, size_t parts, Scheduler* sched,
                        int max_threads);

  StagingShard staged_;  // released by Build()
  std::vector<Slot> slots_;
  std::vector<uint8_t> tags_;  // one per slot
  std::vector<int32_t> arena_;
  size_t mask_ = 0;
  size_t num_keys_ = 0;
  bool built_ = false;
};

/// Join key of a cell, normalized so that any two equality-joinable columns
/// produce comparable keys whenever `EvalPredicate` considers the values
/// equal: strings use their dictionary code (the pool is database-wide) and
/// numeric values use the bit pattern of the value as double, with -0.0
/// canonicalized to +0.0 first (the two compare equal, so they must hash to
/// the same key or index probes silently miss matching rows).
///
/// Int64 values outside [-2^53, 2^53] are not exactly representable as
/// doubles, so distinct values could collapse onto one double bit pattern.
/// To keep int64-int64 equi-joins exact (matching Value::Compare, which
/// compares int64 pairs without promotion), such values instead take a key
/// bijectively mixed from the exact int64 bits. Two documented limits of
/// the 64-bit key space: (a) an int64 beyond 2^53 never key-matches a
/// double column, even when Value::Compare's double promotion would call
/// them equal; (b) a mixed big-int64 key can in principle collide with an
/// unrelated double bit pattern (~2^-64 per pair) — engines trust key
/// equality on the driver predicate and do not re-verify with EvalPredicate.
uint64_t JoinKeyOf(const Column& col, int64_t base_row);

/// The pre-processing artifact of ONE FROM-list table: the base rows
/// surviving its unary predicates plus hash indexes on each of its
/// equi-join columns (over the filtered positions). Immutable after
/// construction and shared by shared_ptr, so the PreparedCache can reuse
/// per-table artifacts at table granularity: a parameterized statement
/// whose `?` only filters table A re-prepares A's artifact per parameter
/// value while every other table's artifact is shared across all values.
struct TableArtifact {
  std::vector<int32_t> filtered;  // surviving base rows, ascending
  std::unordered_map<int, std::unique_ptr<HashIndex>> indexes;  // by column
  /// Virtual cost of building this artifact (filter scan + index inserts);
  /// charged only to the execution that actually built it.
  uint64_t build_cost = 0;

  /// Exact-ish heap footprint (cache accounting): filtered capacity plus
  /// every frozen index.
  size_t bytes() const;
};

/// Builds the artifact of table `t` for the analyzed query: filters by
/// info.unary_preds(t), then (optionally) builds a hash index on each of
/// t's equality-join columns over the survivors. Independent per table —
/// safe to call concurrently for distinct tables, and the unit of reuse
/// for the per-table PreparedCache.
std::shared_ptr<const TableArtifact> BuildTableArtifact(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const QueryInfo& info, int t, bool build_hash_indexes);

/// As above, with the filter scan morsel-parallel and the hash-index
/// builds partitioned over `sched` (null scheduler or width <= 1 runs
/// inline). The artifact — surviving rows, index layout, build_cost — is
/// bit-identical to the sequential build for every worker count; only
/// wall-clock time changes. The concurrent claim-all path of
/// PreparedStatement uses this so each claimed table builds parallel
/// inside while distinct tables build concurrently.
std::shared_ptr<const TableArtifact> BuildTableArtifactParallel(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const QueryInfo& info, int t, bool build_hash_indexes, Scheduler* sched,
    int max_threads);

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
/// when threads <= 1, so sequential and parallel-at-width-1 charge
/// identically.
uint64_t ListScheduleMakespan(const std::vector<uint64_t>& costs, int threads);

/// Options controlling pre-processing.
struct PrepareOptions {
  bool build_hash_indexes = true;
  /// Filter tables on multiple threads (paper Table 2/6: SkinnerDB
  /// parallelizes the pre-processing step only). Morsel-granular: every
  /// fresh table's scan splits into kFilterMorselRows ranges and every
  /// large index build partitions, so even a single-table query scales.
  bool parallel = false;
  /// Configured pre-processing width. The charged virtual cost is the
  /// deterministic list-scheduled makespan of the build tasks at exactly
  /// this width (ListScheduleMakespan); the ACTUAL worker count is leased
  /// from the scheduler's engine budget and may be smaller under load,
  /// changing only wall-clock time — never costs or artifacts.
  int num_threads = 4;
  /// Worker pool hosting the parallel build (common/scheduler.h); null
  /// runs it inline on the calling thread. Either way the charged costs
  /// and the artifact contents are identical — the pool only changes
  /// wall-clock time.
  Scheduler* scheduler = nullptr;
  /// Per-table artifacts to reuse instead of building (PreparedStatement /
  /// PreparedCache): when non-null and (*reuse)[t] is set, table t costs
  /// nothing and shares the given artifact; null slots build fresh. The
  /// vector must be empty or sized to the query's FROM list.
  const std::vector<std::shared_ptr<const TableArtifact>>* reuse = nullptr;
};

/// Output of the pre-processor (paper Figure 2): per-table lists of base
/// rows surviving the unary predicates, plus hash indexes on equi-join
/// columns over those survivors. All engines execute in "position space":
/// position p of table t refers to base row filtered_rows(t)[p].
///
/// A PreparedQuery is split along the execution/artifact boundary:
///  - PreparedQuery::Data is the immutable pre-processing *artifact*
///    (filtered positions + frozen hash indexes). It is read-only after
///    Prepare(), thread-shareable, and held by shared_ptr so the
///    cross-query PreparedCache and concurrent batch items can reuse one
///    build (paper 4.5 does this work per query; reuse makes it free on
///    repeats).
///  - The PreparedQuery object itself is the cheap per-*execution* view:
///    data handle + query/info/pool pointers + this execution's virtual
///    clock. Rebind() constructs one in O(1) from a shared Data.
class PreparedQuery {
 public:
  /// The immutable pre-processing artifact (see class comment): one
  /// shared TableArtifact per FROM-list table. Artifacts are individually
  /// shareable — two Data bundles for different parameter values of one
  /// template typically share every artifact except the param-filtered
  /// tables'.
  struct Data {
    std::vector<const Table*> tables;
    std::vector<std::shared_ptr<const TableArtifact>> artifacts;  // per table
    bool trivially_empty = false;
    /// Virtual cost charged to the preparing execution's clock: the cost
    /// of the artifacts actually built for it (reused/cached tables and
    /// cache hits contribute nothing).
    uint64_t preprocess_cost = 0;

    /// Heap footprint of the referenced artifacts (cache accounting).
    size_t bytes() const;
  };

  /// Runs pre-processing (filter + index build), charges the cost to
  /// `clock`, and returns an execution view over the freshly built Data.
  static Result<std::unique_ptr<PreparedQuery>> Prepare(
      const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
      VirtualClock* clock, const PrepareOptions& opts);

  /// Rebinds an existing shared artifact to a new execution (PreparedCache
  /// hit): no filtering, no index builds, nothing charged to `clock`.
  /// `query`/`info` must be the (equivalent) objects the artifact was built
  /// from — the cache guarantees this by keying on the bound signature.
  static std::unique_ptr<PreparedQuery> Rebind(
      const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
      VirtualClock* clock, std::shared_ptr<const Data> data);

  /// The shared artifact handle (for caching / cross-execution reuse).
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

  /// Virtual cost consumed by building the underlying artifact. This is a
  /// property of the Data: executions served from the PreparedCache report
  /// 0 in their ExecutionStats instead.
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
};

}  // namespace skinner

#endif  // SKINNER_EXEC_PREPARED_QUERY_H_
