#include "exec/prepared_query.h"

#include <algorithm>
#include <cstring>

#include "common/hash_util.h"
#include "common/scheduler.h"

namespace skinner {

uint64_t JoinKeyOf(const Column& col, int64_t base_row) {
  switch (col.type()) {
    case DataType::kString:
      return static_cast<uint64_t>(col.GetStringId(base_row));
    case DataType::kInt64: {
      const int64_t v = col.GetInt(base_row);
      constexpr int64_t kDoubleExactBound = int64_t{1} << 53;
      if (v < -kDoubleExactBound || v > kDoubleExactBound) {
        // The double conversion is lossy here and would collapse distinct
        // int64 keys onto one bit pattern; key on the (bijectively mixed)
        // exact bits instead. See the header contract for the remaining
        // int64-vs-double caveat.
        return HashMix64(static_cast<uint64_t>(v));
      }
      const double d = static_cast<double>(v);  // exact; v == 0 gives +0.0
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(d));
      return bits;
    }
    case DataType::kDouble: {
      double d = col.GetDouble(base_row);
      // -0.0 == +0.0 in EvalPredicate, so both must map to one key or
      // hash-index probes silently miss matching rows.
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(d));
      return bits;
    }
  }
  return 0;
}

void HashIndex::Build(Scheduler* sched, int max_threads) {
  if (built_) return;
  built_ = true;
  if (staged_.empty()) {
    num_keys_ = 0;
    // Release any staging blocks even on the empty path so bytes() never
    // charges the frozen index for build-time scratch.
    staged_.Release();
    return;
  }
  // Capacity: next power of two holding the staged pairs at or under
  // kMaxLoadPercent occupancy (the distinct-key count is bounded by the
  // pair count). This is the invariant that bounds every probe chain and
  // guarantees Find() always reaches an empty tag.
  static_assert(kMaxLoadPercent == 50,
                "capacity sizing below assumes the 50% load bound");
  size_t cap = 16;
  while (cap < staged_.size() * 2) cap <<= 1;
  mask_ = cap - 1;
  slots_.assign(cap, Slot{});
  tags_.assign(cap, 0);

  // The algorithm is chosen by the data alone: worker count must never
  // leak into the frozen layout (bit-identity across thread counts).
  const size_t parts = NumPartitions(cap);
  if (parts >= 2) {
    BuildPartitioned(cap, parts, sched, max_threads);
  } else {
    BuildSequential();
  }
#ifndef NDEBUG
  // Swiss-table invariants, independent of which build path ran: the load
  // bound, tag/payload agreement, and chain reachability (every occupied
  // slot is reachable from its key's home slot over occupied slots only,
  // or Find() would stop at an empty tag and miss it).
  assert(num_keys_ * 2 <= cap && "HashIndex load factor above 50%");
  for (size_t i = 0; i < cap; ++i) {
    if (slots_[i].len == 0) {
      assert(tags_[i] == 0 && "empty slot carries a non-empty tag");
      continue;
    }
    const uint64_t h = HashMix64(slots_[i].key);
    assert(tags_[i] == TagOf(h) && "tag does not match the slot key");
    for (size_t j = h & mask_; j != i; j = (j + 1) & mask_) {
      assert(slots_[j].len != 0 && "probe chain crosses an empty slot");
    }
  }
#endif
  // Release the staging blocks: the "exact heap footprint" contract of
  // bytes() must not keep charging for scratch the index no longer needs.
  staged_.Release();
}

void HashIndex::BuildSequential() {
  const size_t cap = slots_.size();
  // Pass 1: count the run length of every distinct key. Insertion probes
  // linearly from h & mask — the same sequence every Find path walks.
  staged_.ForEach([&](uint64_t key, int32_t pos) {
    (void)pos;
    const uint64_t h = HashMix64(key);
    size_t i = h & mask_;
    while (slots_[i].len != 0 && slots_[i].key != key) i = (i + 1) & mask_;
    if (slots_[i].len == 0) {
      slots_[i].key = key;
      tags_[i] = TagOf(h);
      ++num_keys_;
    }
    ++slots_[i].len;
  });
  assert(num_keys_ * 2 <= cap && "HashIndex load factor above 50%");
  // Pass 2: assign arena offsets (prefix sum in slot order).
  uint32_t offset = 0;
  for (Slot& s : slots_) {
    if (s.len == 0) continue;
    s.offset = offset;
    offset += s.len;
  }
  // Pass 3: scatter positions; insertion order per key is ascending, and a
  // stable scatter preserves it, keeping every run sorted.
  arena_.resize(staged_.size());
  std::vector<uint32_t> cursor(cap, 0);
  staged_.ForEach([&](uint64_t key, int32_t pos) {
    size_t i = HashMix64(key) & mask_;
    while (slots_[i].key != key) i = (i + 1) & mask_;
    arena_[slots_[i].offset + cursor[i]] = pos;
    ++cursor[i];
  });
}

void HashIndex::BuildPartitioned(size_t cap, size_t parts, Scheduler* sched,
                                 int max_threads) {
  // Deterministic partitioned freeze. The slot array splits into `parts`
  // contiguous home-slot ranges (cap and parts are powers of two, so the
  // ranges are equal); every staged pair belongs to the partition of its
  // home slot. Each phase's output is a pure function of the staged data
  // — parallel phases write disjoint state and sequential phases run in a
  // fixed order — so the frozen layout is bit-identical for every worker
  // count, including fully inline execution.
  const size_t part_slots = cap / parts;
  const size_t num_blocks = staged_.num_blocks();

  // Pass 0 (parallel over staging blocks): count pairs per (block,
  // partition) so routing below can scatter without contention.
  std::vector<uint32_t> counts(num_blocks * parts, 0);
  SchedParallelFor(sched, num_blocks, max_threads, [&](size_t b) {
    const std::pair<uint64_t, int32_t>* pairs = staged_.block(b);
    const size_t n = staged_.block_size(b);
    uint32_t* row = counts.data() + b * parts;
    for (size_t i = 0; i < n; ++i) {
      ++row[(HashMix64(pairs[i].first) & mask_) / part_slots];
    }
  });

  // Pass 1 (parallel over staging blocks): route pairs into one
  // partition-major array. Within a partition, block regions appear in
  // block order and pairs in append order, so partition p's stream is
  // exactly the staged stream restricted to p — per-key ascending
  // position order is preserved.
  struct Routed {
    uint64_t key;
    int32_t pos;
  };
  std::vector<Routed> routed(staged_.size());
  std::vector<size_t> part_begin(parts + 1, 0);
  std::vector<size_t> offs(num_blocks * parts);
  {
    size_t off = 0;
    for (size_t p = 0; p < parts; ++p) {
      part_begin[p] = off;
      for (size_t b = 0; b < num_blocks; ++b) {
        offs[b * parts + p] = off;
        off += counts[b * parts + p];
      }
    }
    part_begin[parts] = off;
    assert(off == staged_.size());
  }
  SchedParallelFor(sched, num_blocks, max_threads, [&](size_t b) {
    const std::pair<uint64_t, int32_t>* pairs = staged_.block(b);
    const size_t n = staged_.block_size(b);
    size_t* cursor = offs.data() + b * parts;
    for (size_t i = 0; i < n; ++i) {
      const size_t p = (HashMix64(pairs[i].first) & mask_) / part_slots;
      routed[cursor[p]++] = {pairs[i].first, pairs[i].second};
    }
  });

  // Pass 2 (parallel over partitions): linear-probe insert each
  // partition's stream into its own slot range. Ranges are disjoint, so
  // no two workers touch one slot. A probe chain reaching the range end
  // is DEFERRED (not wrapped): whether it may continue depends on the
  // next partition's occupancy, which is being built concurrently — the
  // sequential spill pass below resolves all such chains in a fixed
  // order instead.
  std::vector<std::vector<size_t>> spill(parts);  // routed indices, in order
  std::vector<size_t> part_keys(parts, 0);
  SchedParallelFor(sched, parts, max_threads, [&](size_t p) {
    const size_t end = (p + 1) * part_slots;
    size_t keys = 0;
    for (size_t r = part_begin[p]; r < part_begin[p + 1]; ++r) {
      const uint64_t key = routed[r].key;
      const uint64_t h = HashMix64(key);
      size_t i = h & mask_;
      for (;;) {
        if (i == end) {
          spill[p].push_back(r);
          break;
        }
        if (slots_[i].len == 0) {
          slots_[i].key = key;
          tags_[i] = TagOf(h);
          slots_[i].len = 1;
          ++keys;
          break;
        }
        if (slots_[i].key == key) {
          ++slots_[i].len;
          break;
        }
        ++i;
      }
    }
    part_keys[p] = keys;
  });
  for (size_t p = 0; p < parts; ++p) num_keys_ += part_keys[p];

  // Pass 3 (sequential): insert the spilled chains — partition order,
  // stream order within a partition — probing the whole table with
  // wraparound. Every partition-local placement already happened, so
  // this order is fixed and the placements deterministic. Spills are
  // rare: a chain must run from its home slot to a partition boundary
  // unbroken, against the <= 50% load bound.
  for (size_t p = 0; p < parts; ++p) {
    for (size_t r : spill[p]) {
      const uint64_t key = routed[r].key;
      const uint64_t h = HashMix64(key);
      size_t i = h & mask_;
      while (slots_[i].len != 0 && slots_[i].key != key) i = (i + 1) & mask_;
      if (slots_[i].len == 0) {
        slots_[i].key = key;
        tags_[i] = TagOf(h);
        ++num_keys_;
      }
      ++slots_[i].len;
    }
  }
  assert(num_keys_ * 2 <= cap && "HashIndex load factor above 50%");

  // Pass 4 (sequential): arena offsets — prefix sum in slot order.
  uint32_t offset = 0;
  for (Slot& s : slots_) {
    if (s.len == 0) continue;
    s.offset = offset;
    offset += s.len;
  }

  // Pass 5 (parallel over partitions, then sequential spill): stable
  // scatter. A pair whose key stayed in-partition has its slot inside the
  // partition's own range, so per-partition cursors never race; spilled
  // pairs (whose slots may live anywhere) scatter afterwards in the same
  // fixed order as pass 3. Either way each key's pairs arrive in staged
  // order, keeping every posting run ascending.
  arena_.resize(staged_.size());
  std::vector<uint32_t> cursor(cap, 0);
  SchedParallelFor(sched, parts, max_threads, [&](size_t p) {
    const size_t end = (p + 1) * part_slots;
    (void)end;  // assertion-only outside debug builds
    const std::vector<size_t>& sp = spill[p];
    size_t snext = 0;  // spill[p] is ascending: built in stream order
    for (size_t r = part_begin[p]; r < part_begin[p + 1]; ++r) {
      if (snext < sp.size() && sp[snext] == r) {
        ++snext;  // spilled pair: the sequential pass below owns it
        continue;
      }
      const uint64_t key = routed[r].key;
      size_t i = HashMix64(key) & mask_;
      while (slots_[i].len == 0 || slots_[i].key != key) {
        ++i;
        assert(i < end && "in-partition key not found in its own range");
      }
      arena_[slots_[i].offset + cursor[i]] = routed[r].pos;
      ++cursor[i];
    }
  });
  for (size_t p = 0; p < parts; ++p) {
    for (size_t r : spill[p]) {
      const uint64_t key = routed[r].key;
      size_t i = HashMix64(key) & mask_;
      while (slots_[i].len == 0 || slots_[i].key != key) i = (i + 1) & mask_;
      arena_[slots_[i].offset + cursor[i]] = routed[r].pos;
      ++cursor[i];
    }
  }
}

uint64_t HashIndex::Fingerprint() const {
  assert(built_ && "Fingerprint before Build() is meaningless");
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(mask_);
  const auto mix = [&h](uint64_t v) { h = HashMix64(h ^ v); };
  mix(num_keys_);
  mix(slots_.size());
  mix(arena_.size());
  for (const Slot& s : slots_) {
    mix(s.key);
    mix((static_cast<uint64_t>(s.offset) << 32) | s.len);
  }
  for (const int32_t v : arena_) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(v)));
  }
  // Tags are derived from the slots, but hash them anyway: the probe path
  // reads them, so a corrupt tag array must not fingerprint as identical.
  for (const uint8_t t : tags_) mix(t);
  return h;
}

namespace {
/// Batch-kernel prefetch distance: hashing + tag/slot prefetching runs
/// this many probes ahead of resolution, so by the time probe i resolves,
/// its (random, usually cold) tag and payload lines have had a full
/// pipeline's worth of work to arrive. A grouped prefetch-then-resolve
/// scheme stalls at every group boundary — the first resolution starts
/// one cycle after its own prefetch; the steady-state pipeline never
/// does. This memory-level parallelism, not instruction count, is what
/// makes the batch path several times faster than looped Find() on
/// cache-cold tables. Must be a power of two (ring indexing).
constexpr size_t kPrefetchDist = 32;
}  // namespace

void HashIndex::FindBatch(const uint64_t* keys, size_t n,
                          Postings* out) const {
  assert(built_ && "HashIndex::FindBatch before Build() misses every key");
  if (slots_.empty()) {
    for (size_t i = 0; i < n; ++i) out[i] = {};
    return;
  }
  uint64_t hashes[kPrefetchDist];
  const size_t lead = n < kPrefetchDist ? n : kPrefetchDist;
  for (size_t i = 0; i < lead; ++i) {
    const uint64_t h = HashMix64(keys[i]);
    hashes[i] = h;
    const size_t s = h & mask_;
    __builtin_prefetch(tags_.data() + s, 0, 1);
    __builtin_prefetch(slots_.data() + s, 0, 1);
  }
  for (size_t i = 0; i < n; ++i) {
    // Read the current probe's hash BEFORE the ahead-write: slot i of the
    // ring is exactly the slot probe i + kPrefetchDist re-fills.
    const uint64_t h = hashes[i & (kPrefetchDist - 1)];
    const size_t ahead = i + kPrefetchDist;
    if (ahead < n) {
      const uint64_t ha = HashMix64(keys[ahead]);
      hashes[ahead & (kPrefetchDist - 1)] = ha;
      const size_t s = ha & mask_;
      __builtin_prefetch(tags_.data() + s, 0, 1);
      __builtin_prefetch(slots_.data() + s, 0, 1);
    }
    const Postings p = FindHashed(keys[i], h);
    // Prefetch the postings head for the caller's binary-search jump.
    if (p.data != nullptr) __builtin_prefetch(p.data, 0, 1);
    out[i] = p;
  }
}

namespace {

/// Filters rows [begin, end) of one table by its unary predicates; returns
/// the surviving base rows (ascending) and the cost units spent. One morsel
/// of the (possibly parallel) filter scan. Costs are count-based — one unit
/// per row plus predicate-evaluation ticks — so the morsel costs of a table
/// sum to exactly what one sequential whole-table scan charges, regardless
/// of how the range was split.
std::pair<std::vector<int32_t>, uint64_t> FilterMorsel(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const std::vector<const Expr*>& preds, int t, int64_t begin, int64_t end) {
  std::vector<int32_t> rows;
  uint64_t cost = 0;
  rows.reserve(static_cast<size_t>(end - begin));
  std::vector<int64_t> binding(tables.size(), 0);
  // Use a local clock so parallel filtering does not race on the shared one.
  VirtualClock local;
  EvalContext ctx;
  ctx.tables = &tables;
  ctx.pool = pool;
  ctx.rows = binding.data();
  ctx.clock = &local;
  // Deleted rows are filtered out here — every downstream consumer (join
  // engines, indexes) sees artifact positions only. `masked` is hoisted so
  // a fully-valid table takes the exact pre-mutation path and cost.
  const Table* tab = tables[static_cast<size_t>(t)];
  const bool masked = tab->has_deletes();
  for (int64_t r = begin; r < end; ++r) {
    ++cost;
    if (masked && !tab->IsRowValid(r)) continue;
    binding[static_cast<size_t>(t)] = r;
    bool pass = true;
    for (const Expr* p : preds) {
      if (!EvalPredicate(*p, ctx)) {
        pass = false;
        break;
      }
    }
    if (pass) rows.push_back(static_cast<int32_t>(r));
  }
  return {std::move(rows), cost + local.now()};
}

/// Filters one whole table (the sequential path: a single morsel).
std::pair<std::vector<int32_t>, uint64_t> FilterTable(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const std::vector<const Expr*>& preds, int t) {
  return FilterMorsel(tables, pool, preds, t,  0,
                      tables[static_cast<size_t>(t)]->num_rows());
}

/// Ascending, deduplicated equality-join columns of table `t` — the
/// columns the paper indexes ("we create hash tables on all columns
/// subject to equality predicates").
std::vector<int> EquiJoinColumns(const QueryInfo& info, int t) {
  std::vector<int> cols;
  for (const EquiJoinPred& ep : info.equi_preds()) {
    if (ep.left_table == t) cols.push_back(ep.left_col);
    if (ep.right_table == t) cols.push_back(ep.right_col);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// Builds the frozen index of one (table, column) pair over the filtered
/// positions; returns it with the virtual cost of the inserts. The unit of
/// parallelism for pre-processing index builds: each call stages into its
/// own HashIndex shard, so concurrent jobs share no growing allocation.
std::pair<std::unique_ptr<HashIndex>, uint64_t> BuildColumnIndex(
    const std::vector<const Table*>& tables, int t, int col,
    const std::vector<int32_t>& filtered, Scheduler* sched = nullptr,
    int max_threads = 1) {
  auto index = std::make_unique<HashIndex>();
  uint64_t cost = 0;
  const Column& c = tables[static_cast<size_t>(t)]->column(col);
  for (size_t p = 0; p < filtered.size(); ++p) {
    if (c.IsNull(filtered[p])) continue;  // NULL never equi-joins
    index->Add(JoinKeyOf(c, filtered[p]), static_cast<int32_t>(p));
    ++cost;
  }
  index->Build(sched, max_threads);
  return {std::move(index), cost};
}

}  // namespace

size_t TableArtifact::bytes() const {
  size_t b = sizeof(TableArtifact) + filtered.capacity() * sizeof(int32_t);
  for (const auto& [col, index] : indexes) {
    (void)col;
    b += sizeof(HashIndex) + index->bytes();
  }
  return b;
}

size_t PreparedQuery::Data::bytes() const {
  size_t b = sizeof(Data) + tables.capacity() * sizeof(const Table*);
  for (const auto& a : artifacts) {
    if (a != nullptr) b += a->bytes();
  }
  return b;
}

std::shared_ptr<const TableArtifact> BuildTableArtifact(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const QueryInfo& info, int t, bool build_hash_indexes) {
  auto artifact = std::make_shared<TableArtifact>();
  auto [rows, cost] = FilterTable(tables, pool, info.unary_preds(t), t);
  artifact->filtered = std::move(rows);
  artifact->build_cost = cost;
  // Hash indexes on each of t's equality-join columns, over the filtered
  // positions only ("only tuples satisfying all unary predicates are
  // hashed"). Built per table so the artifact is self-contained and
  // reusable regardless of what happens to the query's other tables.
  if (build_hash_indexes && !artifact->filtered.empty()) {
    for (int col : EquiJoinColumns(info, t)) {
      auto [index, cost] = BuildColumnIndex(tables, t, col, artifact->filtered);
      artifact->build_cost += cost;
      artifact->indexes.emplace(col, std::move(index));
    }
  }
  return artifact;
}

uint64_t ListScheduleMakespan(const std::vector<uint64_t>& costs,
                              int threads) {
  const size_t width = static_cast<size_t>(threads < 1 ? 1 : threads);
  if (width <= 1) {
    uint64_t sum = 0;
    for (const uint64_t c : costs) sum += c;
    return sum;
  }
  // Greedy list scheduling: each task, in order, lands on the least-loaded
  // virtual worker (ties to the lowest index). Deterministic in the task
  // order and width alone — never in the real pool's timing.
  std::vector<uint64_t> load(width < costs.size() ? width : costs.size(), 0);
  if (load.empty()) return 0;
  for (const uint64_t c : costs) {
    size_t best = 0;
    for (size_t w = 1; w < load.size(); ++w) {
      if (load[w] < load[best]) best = w;
    }
    load[best] += c;
  }
  uint64_t makespan = 0;
  for (const uint64_t l : load) makespan = std::max(makespan, l);
  return makespan;
}

std::shared_ptr<const TableArtifact> BuildTableArtifactParallel(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const QueryInfo& info, int t, bool build_hash_indexes, Scheduler* sched,
    int max_threads) {
  if (sched == nullptr || max_threads <= 1) {
    return BuildTableArtifact(tables, pool, info, t, build_hash_indexes);
  }
  auto artifact = std::make_shared<TableArtifact>();
  const int64_t n = tables[static_cast<size_t>(t)]->num_rows();
  const size_t morsels =
      static_cast<size_t>((n + kFilterMorselRows - 1) / kFilterMorselRows);
  const std::vector<const Expr*>& preds = info.unary_preds(t);
  std::vector<std::pair<std::vector<int32_t>, uint64_t>> parts(morsels);
  // Morsel-parallel filter scan; a table at most one morsel long runs on
  // the caller thread without touching the dispatch queue.
  sched->ParallelFor(
      morsels, max_threads,
      [&](size_t i) {
        const int64_t begin = static_cast<int64_t>(i) * kFilterMorselRows;
        const int64_t end = std::min(n, begin + kFilterMorselRows);
        parts[i] = FilterMorsel(tables, pool, preds, t, begin, end);
      },
      /*min_grain=*/1);
  // Concatenate in range order: bit-identical to the sequential scan, and
  // morsel costs sum to exactly the sequential scan's cost.
  size_t total = 0;
  for (const auto& [rows, cost] : parts) total += rows.size();
  artifact->filtered.reserve(total);
  for (auto& [rows, cost] : parts) {
    artifact->filtered.insert(artifact->filtered.end(), rows.begin(),
                              rows.end());
    artifact->build_cost += cost;
  }
  if (build_hash_indexes && !artifact->filtered.empty()) {
    // Distinct columns stage concurrently (each into its own shard), and
    // each column's Build() runs its partitioned phases on the same pool
    // (ParallelFor nests safely — the caller participates).
    const std::vector<int> cols = EquiJoinColumns(info, t);
    std::vector<std::pair<std::unique_ptr<HashIndex>, uint64_t>> built(
        cols.size());
    sched->ParallelFor(
        cols.size(), max_threads,
        [&](size_t i) {
          built[i] = BuildColumnIndex(tables, t, cols[i], artifact->filtered,
                                      sched, max_threads);
        },
        /*min_grain=*/1);
    for (size_t i = 0; i < cols.size(); ++i) {
      artifact->build_cost += built[i].second;
      artifact->indexes.emplace(cols[i], std::move(built[i].first));
    }
  }
  return artifact;
}

const HashIndex* PreparedQuery::index(int t, int col) const {
  const auto& indexes = data_->artifacts[static_cast<size_t>(t)]->indexes;
  auto it = indexes.find(col);
  return it == indexes.end() ? nullptr : it->second.get();
}

std::unique_ptr<PreparedQuery> PreparedQuery::Rebind(
    const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
    VirtualClock* clock, std::shared_ptr<const Data> data) {
  auto pq = std::unique_ptr<PreparedQuery>(new PreparedQuery());
  pq->query_ = query;
  pq->info_ = info;
  pq->pool_ = pool;
  pq->clock_ = clock;
  pq->data_ = std::move(data);
  return pq;
}

Result<std::unique_ptr<PreparedQuery>> PreparedQuery::Prepare(
    const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
    VirtualClock* clock, const PrepareOptions& opts) {
  auto data = std::make_shared<Data>();
  data->tables = query->TablePtrs();
  const int m = static_cast<int>(data->tables.size());
  data->artifacts.resize(static_cast<size_t>(m));
  const bool have_reuse = opts.reuse != nullptr && !opts.reuse->empty();
  assert(!have_reuse || opts.reuse->size() == static_cast<size_t>(m));

  // Constant predicates decide emptiness without touching data. Their
  // (typically negligible) evaluation cost counts as pre-processing; it is
  // re-evaluated per execution because a parameterized constant predicate
  // changes with the bound values while the per-table artifacts do not.
  {
    VirtualClock local;
    std::vector<int64_t> binding(static_cast<size_t>(m), 0);
    EvalContext ctx;
    ctx.tables = &data->tables;
    ctx.pool = pool;
    ctx.rows = binding.data();
    ctx.clock = &local;
    bool empty = false;
    for (const PredInfo& p : info->constant_preds()) {
      if (!EvalPredicate(*p.expr, ctx)) {
        empty = true;
        break;
      }
    }
    data->preprocess_cost += local.now();
    if (empty) {
      data->trivially_empty = true;
      // Engines never run on a trivially empty query, but accessors must
      // stay safe: every table gets one shared empty artifact.
      static const std::shared_ptr<const TableArtifact> kEmpty =
          std::make_shared<TableArtifact>();
      for (int t = 0; t < m; ++t) {
        data->artifacts[static_cast<size_t>(t)] =
            have_reuse && (*opts.reuse)[static_cast<size_t>(t)] != nullptr
                ? (*opts.reuse)[static_cast<size_t>(t)]
                : kEmpty;
      }
      clock->Tick(data->preprocess_cost);
      return Rebind(query, info, pool, clock, std::move(data));
    }
  }

  // Per-table artifacts (filter + that table's equi-join indexes), built
  // only where no reusable artifact was supplied; optionally parallel
  // (paper: pre-processing is the one parallelized phase of Skinner-C).
  std::vector<int> fresh;
  fresh.reserve(static_cast<size_t>(m));
  for (int t = 0; t < m; ++t) {
    if (have_reuse && (*opts.reuse)[static_cast<size_t>(t)] != nullptr) {
      data->artifacts[static_cast<size_t>(t)] =
          (*opts.reuse)[static_cast<size_t>(t)];
    } else {
      fresh.push_back(t);
    }
  }
  if (opts.parallel && !fresh.empty()) {
    // Execution width is leased from the scheduler's engine budget (under
    // concurrent sessions a build degrades to fewer workers); the charged
    // cost below stays pinned to the CONFIGURED width, so costs never
    // depend on who else was running.
    ThreadLease lease;
    int width = std::max(opts.num_threads, 1);
    if (opts.scheduler != nullptr && opts.num_threads > 1) {
      lease = opts.scheduler->LeaseThreads(opts.num_threads);
      width = std::max(1, lease.granted());
    }
    // Phase A: one job per (table, morsel) across EVERY fresh table, so a
    // lone large table still splits and small tables cannot straggle.
    struct FilterJob {
      int t;
      int64_t begin;
      int64_t end;
      std::vector<int32_t> rows;
      uint64_t cost = 0;
    };
    std::vector<FilterJob> jobs;
    std::vector<std::shared_ptr<TableArtifact>> built(static_cast<size_t>(m));
    int64_t total_rows = 0;
    for (int t : fresh) {
      built[static_cast<size_t>(t)] = std::make_shared<TableArtifact>();
      const int64_t n = data->tables[static_cast<size_t>(t)]->num_rows();
      total_rows += n;
      for (int64_t b = 0; b < n; b += kFilterMorselRows) {
        jobs.push_back(
            FilterJob{t, b, std::min(n, b + kFilterMorselRows), {}, 0});
      }
    }
    // When the whole workload is under one morsel of rows, dispatching it
    // would cost more than scanning it: run every job on this thread.
    const size_t filter_grain =
        total_rows <= kFilterMorselRows ? jobs.size() : size_t{1};
    SchedParallelFor(
        opts.scheduler, jobs.size(), width,
        [&](size_t i) {
          FilterJob& job = jobs[i];
          auto [rows, cost] = FilterMorsel(data->tables, pool,
                                           info->unary_preds(job.t), job.t,
                                           job.begin, job.end);
          job.rows = std::move(rows);
          job.cost = cost;
        },
        filter_grain);
    // Concatenate in (table, range) order — bit-identical to sequential
    // scans — and collect per-morsel costs for the makespan model.
    std::vector<uint64_t> filter_costs;
    filter_costs.reserve(jobs.size());
    for (FilterJob& job : jobs) {
      TableArtifact& a = *built[static_cast<size_t>(job.t)];
      a.filtered.insert(a.filtered.end(), job.rows.begin(), job.rows.end());
      a.build_cost += job.cost;
      filter_costs.push_back(job.cost);
    }
    // Phase B: one job per (table, column) index, so a single wide table
    // cannot serialize the build and each worker stages into its own
    // HashIndex shard (no contended/false-shared growing vector). Large
    // indexes additionally run their partitioned Build phases on the same
    // pool (nested ParallelFor; the caller participates).
    struct IndexJob {
      int t;
      int col;
      std::unique_ptr<HashIndex> index;
      uint64_t cost = 0;
    };
    std::vector<IndexJob> ijobs;
    if (opts.build_hash_indexes) {
      for (int t : fresh) {
        if (built[static_cast<size_t>(t)]->filtered.empty()) continue;
        for (int col : EquiJoinColumns(*info, t)) {
          ijobs.push_back(IndexJob{t, col, nullptr, 0});
        }
      }
    }
    SchedParallelFor(
        opts.scheduler, ijobs.size(), width,
        [&](size_t i) {
          IndexJob& job = ijobs[i];
          auto [index, cost] = BuildColumnIndex(
              data->tables, job.t, job.col,
              built[static_cast<size_t>(job.t)]->filtered, opts.scheduler,
              width);
          job.index = std::move(index);
          job.cost = cost;
        },
        /*min_grain=*/1);
    // Attach sequentially — unordered_map insertion is not thread-safe.
    // Cost totals are count-based and schedule-independent, so the values
    // match the sequential path exactly.
    std::vector<uint64_t> index_costs;
    index_costs.reserve(ijobs.size());
    for (IndexJob& job : ijobs) {
      TableArtifact& a = *built[static_cast<size_t>(job.t)];
      a.build_cost += job.cost;
      a.indexes.emplace(job.col, std::move(job.index));
      index_costs.push_back(job.cost);
    }
    for (int t : fresh) {
      data->artifacts[static_cast<size_t>(t)] = built[static_cast<size_t>(t)];
    }
    // Parallel cost model: the deterministic list-scheduled makespan of the
    // filter morsels plus that of the index jobs, at the CONFIGURED width.
    // At num_threads <= 1 each makespan is exactly the cost sum, so the
    // parallel path charges precisely what the sequential path would.
    data->preprocess_cost +=
        ListScheduleMakespan(filter_costs, opts.num_threads) +
        ListScheduleMakespan(index_costs, opts.num_threads);
  } else {
    for (int t : fresh) {
      data->artifacts[static_cast<size_t>(t)] = BuildTableArtifact(
          data->tables, pool, *info, t, opts.build_hash_indexes);
      data->preprocess_cost +=
          data->artifacts[static_cast<size_t>(t)]->build_cost;
    }
  }
  for (int t = 0; t < m; ++t) {
    if (data->artifacts[static_cast<size_t>(t)]->filtered.empty()) {
      data->trivially_empty = true;
    }
  }
  clock->Tick(data->preprocess_cost);
  return Rebind(query, info, pool, clock, std::move(data));
}

}  // namespace skinner
