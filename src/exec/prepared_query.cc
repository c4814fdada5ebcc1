#include "exec/prepared_query.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash_util.h"
#include "common/scheduler.h"
#include "exec/prepared_cache.h"
#include "expr/filter_program.h"

namespace skinner {

uint64_t JoinKeyOf(const Column& col, int64_t base_row) {
  switch (col.type()) {
    case DataType::kString:
      return static_cast<uint64_t>(col.GetStringId(base_row));
    case DataType::kInt64:
      return static_cast<uint64_t>(col.GetInt(base_row));
    case DataType::kDouble: {
      const double d = col.GetDouble(base_row);
      // [-2^63, 2^63) is exactly the int64 range; NaN fails both bounds.
      constexpr double kTwo63 = 9223372036854775808.0;
      if (d >= -kTwo63 && d < kTwo63 && d == std::trunc(d)) {
        return static_cast<uint64_t>(static_cast<int64_t>(d));  // -0.0 -> 0
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(d));
      // Bit 62 := NOT bit 63 gives the key an int64 magnitude >= 2^62,
      // outside every integer in [-2^53, 2^53] (whose bits 63 and 62 agree).
      constexpr uint64_t kBit62 = uint64_t{1} << 62;
      const uint64_t m = HashMix64(bits);
      return (m & ~kBit62) | ((~m >> 1) & kBit62);
    }
  }
  return 0;
}

namespace {

/// The (key, position) pairs of a key view over filtered rows: position p
/// carries the key of base row rows[p], and NULL cells carry none. The
/// pair source every HashIndex build pass reads.
struct ViewPairs {
  const JoinKeyView& keys;
  const std::vector<int32_t>& rows;

  template <class Fn>
  void ForEach(Fn&& fn) const {
    const int64_t* raw = keys.raw_keys();
    if (raw != nullptr && keys.nulls() == nullptr) {
      for (size_t p = 0; p < rows.size(); ++p) {
        fn(static_cast<uint64_t>(raw[rows[p]]), static_cast<int32_t>(p));
      }
      return;
    }
    for (size_t p = 0; p < rows.size(); ++p) {
      if (keys.IsNull(rows[p])) continue;
      fn(keys.Key(rows[p]), static_cast<int32_t>(p));
    }
  }

  template <class Fn>
  void ForEachReverse(Fn&& fn) const {
    const int64_t* raw = keys.raw_keys();
    if (raw != nullptr && keys.nulls() == nullptr) {
      for (size_t p = rows.size(); p-- > 0;) {
        fn(static_cast<uint64_t>(raw[rows[p]]), static_cast<int32_t>(p));
      }
      return;
    }
    for (size_t p = rows.size(); p-- > 0;) {
      if (keys.IsNull(rows[p])) continue;
      fn(keys.Key(rows[p]), static_cast<int32_t>(p));
    }
  }
};

}  // namespace

HashIndex::HashIndex(const JoinKeyView& keys,
                     const std::vector<int32_t>& rows) {
  // One counting pass: the pair count and key range, which is all the
  // layout choice reads.
  size_t n = 0;
  ViewPairs{keys, rows}.ForEach([&](uint64_t key, int32_t) {
    ++n;
    const int64_t k = static_cast<int64_t>(key);
    if (k < key_min_) key_min_ = k;
    if (k > key_max_) key_max_ = k;
  });
  if (n == 0) return;
  // Swiss capacity: next power of two holding the pairs at or under
  // kMaxLoadPercent occupancy (the distinct-key count is bounded by the
  // pair count). This is the invariant that bounds every probe chain and
  // guarantees Find() always reaches an empty tag.
  static_assert(kMaxLoadPercent == 50,
                "capacity sizing below assumes the 50% load bound");
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;

  // Layout choice, from the keys alone: direct addressing whenever its
  // span + 1 offsets take no more bytes than the Swiss slots and tags.
  // `gap` = span - 1, computed in wrapping arithmetic so no key range can
  // overflow the comparison.
  const uint64_t gap =
      static_cast<uint64_t>(key_max_) - static_cast<uint64_t>(key_min_);
  const uint64_t swiss_bytes = cap * (sizeof(Slot) + sizeof(uint8_t));
  if (gap <= swiss_bytes / sizeof(uint32_t) - 2) {
    BuildDirect(keys, rows, n, static_cast<size_t>(gap) + 1);
  } else {
    BuildSwiss(keys, rows, n, cap);
  }
}

void HashIndex::BuildDirect(const JoinKeyView& keys,
                            const std::vector<int32_t>& rows, size_t n,
                            size_t span) {
  const ViewPairs pairs{keys, rows};
  const uint64_t base = static_cast<uint64_t>(key_min_);
  // Count: offsets_[k] = run length of key base + k.
  offsets_.assign(span + 1, 0);
  pairs.ForEach([&](uint64_t key, int32_t) { ++offsets_[key - base]; });
  // Inclusive prefix sum: offsets_[k] = end of key k's run.
  uint32_t end = 0;
  for (size_t k = 0; k < span; ++k) {
    num_keys_ += offsets_[k] != 0;
    end += offsets_[k];
    offsets_[k] = end;
  }
  offsets_[span] = end;
  // Stable scatter, walking the pairs backwards: pre-decrementing each
  // key's end cursor lays its run out in position (ascending) order and
  // leaves offsets_[k] at the run's start.
  arena_.resize(n);
  pairs.ForEachReverse([&](uint64_t key, int32_t pos) {
    arena_[--offsets_[key - base]] = pos;
  });
#ifndef NDEBUG
  assert(offsets_[0] == 0 && offsets_[span] == arena_.size());
  for (size_t k = 0; k < span; ++k) {
    assert(offsets_[k] <= offsets_[k + 1] && "direct offsets not monotone");
    for (uint32_t i = offsets_[k] + 1; i < offsets_[k + 1]; ++i) {
      assert(arena_[i - 1] < arena_[i] && "direct postings not ascending");
    }
  }
#endif
}

void HashIndex::BuildSwiss(const JoinKeyView& keys,
                           const std::vector<int32_t>& rows, size_t n,
                           size_t cap) {
  const ViewPairs pairs{keys, rows};
  mask_ = cap - 1;
  slots_.assign(cap, Slot{});
  tags_.assign(cap, 0);
  // Pass 1: count the run length of every distinct key. Insertion probes
  // linearly from h & mask — the same sequence Find() walks.
  pairs.ForEach([&](uint64_t key, int32_t) {
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
  // Pass 2: assign arena offsets (prefix sum in slot order).
  uint32_t offset = 0;
  for (Slot& s : slots_) {
    if (s.len == 0) continue;
    s.offset = offset;
    offset += s.len;
  }
  // Pass 3: scatter positions; pairs arrive in ascending position order,
  // and a stable scatter preserves it, keeping every run sorted.
  arena_.resize(n);
  std::vector<uint32_t> cursor(cap, 0);
  pairs.ForEach([&](uint64_t key, int32_t pos) {
    size_t i = HashMix64(key) & mask_;
    while (slots_[i].key != key) i = (i + 1) & mask_;
    arena_[slots_[i].offset + cursor[i]] = pos;
    ++cursor[i];
  });
#ifndef NDEBUG
  // Swiss-table invariants: the load bound, tag/payload agreement, and
  // chain reachability (every occupied slot is reachable from its key's
  // home slot over occupied slots only, or Find() would stop at an empty
  // tag and miss it).
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
}

uint64_t HashIndex::Fingerprint() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(mask_);
  const auto mix = [&h](uint64_t v) { h = HashMix64(h ^ v); };
  mix(num_keys_);
  mix(slots_.size());
  mix(arena_.size());
  mix(offsets_.size());
  mix(static_cast<uint64_t>(key_min_));
  mix(static_cast<uint64_t>(key_max_));
  for (const uint32_t o : offsets_) mix(o);
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

/// Filters rows [begin, end) of one table by its compiled unary
/// predicates; returns the surviving base rows (ascending) and the cost
/// units spent. One morsel of the (possibly parallel) filter scan. Costs are
/// count-based — one unit per row, deleted or not, plus the ticks of UDFs
/// that fallback nodes call — so the morsel costs of a table sum to exactly
/// what one sequential whole-table scan charges, regardless of how the
/// range was split.
std::pair<std::vector<int32_t>, uint64_t> FilterMorsel(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const FilterProgram& program, int64_t begin, int64_t end) {
  std::vector<int32_t> rows;
  rows.reserve(static_cast<size_t>(end - begin));
  // Use a local clock so parallel filtering does not race on the shared one.
  VirtualClock local;
  program.Filter(begin, end, tables, pool, &local, &rows);
  return {std::move(rows), static_cast<uint64_t>(end - begin) + local.now()};
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

/// Builds the artifacts of the tables in `fresh` into (*out)[t] and returns
/// the virtual cost charged for them (see PreparedQuery::Prepare for the
/// cost model). The artifacts are bit-identical at every width.
uint64_t BuildArtifacts(const std::vector<const Table*>& tables,
                        const StringPool* pool, const QueryInfo& info,
                        const std::vector<int>& fresh,
                        const PrepareOptions& opts,
                        std::vector<std::shared_ptr<const TableArtifact>>* out) {
  if (fresh.empty()) return 0;
  const int width = std::max(opts.width, 1);
  // Phase A: one job per (table, morsel) across EVERY fresh table, so a
  // lone large table still splits and small tables cannot straggle. At
  // width 1 there is nothing to balance: each table is one job.
  struct FilterJob {
    int t;
    int64_t begin;
    int64_t end;
    std::vector<int32_t> rows;
    uint64_t cost = 0;
  };
  std::vector<FilterJob> jobs;
  std::vector<std::shared_ptr<TableArtifact>> built(tables.size());
  // Each fresh table's unary conjuncts, compiled once for all its morsels.
  std::vector<std::unique_ptr<FilterProgram>> programs(tables.size());
  int64_t total_rows = 0;
  for (int t : fresh) {
    built[static_cast<size_t>(t)] = std::make_shared<TableArtifact>();
    programs[static_cast<size_t>(t)] = std::make_unique<FilterProgram>(
        info.unary_preds(t), *tables[static_cast<size_t>(t)], t);
    const int64_t n = tables[static_cast<size_t>(t)]->num_rows();
    const int64_t morsel =
        width > 1 ? kFilterMorselRows : std::max<int64_t>(n, 1);
    total_rows += n;
    for (int64_t b = 0; b < n; b += morsel) {
      jobs.push_back(FilterJob{t, b, std::min(n, b + morsel), {}, 0});
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
        auto [rows, cost] =
            FilterMorsel(tables, pool, *programs[static_cast<size_t>(job.t)],
                         job.begin, job.end);
        job.rows = std::move(rows);
        job.cost = cost;
      },
      filter_grain);
  // Concatenate in (table, range) order — bit-identical to one whole-table
  // scan — into a buffer sized to the survivors exactly, so
  // TableArtifact::bytes() is the same at every width and a selective
  // filter is not charged for the rows it dropped. Collect per-job costs
  // for the makespan model.
  std::vector<size_t> survivors(tables.size(), 0);
  for (const FilterJob& job : jobs) {
    survivors[static_cast<size_t>(job.t)] += job.rows.size();
  }
  for (int t : fresh) {
    built[static_cast<size_t>(t)]->filtered.reserve(
        survivors[static_cast<size_t>(t)]);
  }
  std::vector<uint64_t> filter_costs;
  filter_costs.reserve(jobs.size());
  for (FilterJob& job : jobs) {
    TableArtifact& a = *built[static_cast<size_t>(job.t)];
    a.filtered.insert(a.filtered.end(), job.rows.begin(), job.rows.end());
    a.build_cost += job.cost;
    filter_costs.push_back(job.cost);
  }
  // Phase B: one job per (table, column) index, so a single wide table
  // cannot serialize the build. Each job builds its own HashIndex straight
  // from the column's key view, so concurrent jobs share no allocation.
  struct IndexJob {
    int t;
    int col;
    std::unique_ptr<HashIndex> index;
  };
  std::vector<IndexJob> ijobs;
  if (opts.build_hash_indexes) {
    for (int t : fresh) {
      if (built[static_cast<size_t>(t)]->filtered.empty()) continue;
      for (int col : EquiJoinColumns(info, t)) {
        ijobs.push_back(IndexJob{t, col, nullptr});
      }
    }
  }
  SchedParallelFor(
      opts.scheduler, ijobs.size(), width,
      [&](size_t i) {
        IndexJob& job = ijobs[i];
        job.index = std::make_unique<HashIndex>(
            JoinKeyView(tables[static_cast<size_t>(job.t)]->column(job.col)),
            built[static_cast<size_t>(job.t)]->filtered);
      },
      /*min_grain=*/1);
  // Attach sequentially — unordered_map insertion is not thread-safe.
  // Cost totals are count-based and schedule-independent, so they are the
  // same at every width.
  std::vector<uint64_t> index_costs;
  index_costs.reserve(ijobs.size());
  for (IndexJob& job : ijobs) {
    // One unit per indexed key; NULL never equi-joins and is not indexed.
    const uint64_t cost = job.index->num_postings();
    TableArtifact& a = *built[static_cast<size_t>(job.t)];
    a.build_cost += cost;
    a.indexes.emplace(job.col, std::move(job.index));
    index_costs.push_back(cost);
  }
  for (int t : fresh) {
    (*out)[static_cast<size_t>(t)] = std::move(built[static_cast<size_t>(t)]);
  }
  // Cost model: the deterministic list-scheduled makespan of the filter
  // jobs plus that of the index jobs, at the CONFIGURED width. At width 1
  // each makespan is exactly the cost sum.
  return ListScheduleMakespan(filter_costs, width) +
         ListScheduleMakespan(index_costs, width);
}

/// Proves the stale artifact of table `t` exact under the table's current
/// data. An artifact is a pure function of which rows pass the filter and
/// of those rows' join keys, so it still holds when every row changed
/// since its data version keeps its membership of `filtered`, and no
/// filtered row had an indexed column updated. Charges one cost unit per
/// change checked (plus the UDF ticks of fallback filter nodes) to *cost;
/// false when the table's change log no longer reaches back to the stale
/// version, when it holds as many changes as the table has rows (checking
/// would cost about what a rebuild does), or some change breaks the
/// artifact.
bool Revalidate(const std::vector<const Table*>& tables, const StringPool* pool,
                const QueryInfo& info, int t,
                const PreparedCache::StaleArtifact& stale, uint64_t* cost) {
  const Table& table = *tables[static_cast<size_t>(t)];
  const Table::RowChange* begin = nullptr;
  const Table::RowChange* end = nullptr;
  if (stale.artifact == nullptr ||
      !table.ChangesSince(stale.data_version, &begin, &end) ||
      end - begin >= table.num_rows()) {
    return false;
  }
  const TableArtifact& a = *stale.artifact;
  const FilterProgram program(info.unary_preds(t), table, t);
  VirtualClock local;
  std::vector<int32_t> passed;
  bool exact = true;
  for (const Table::RowChange* c = begin; exact && c != end; ++c) {
    ++*cost;
    passed.clear();
    program.Filter(c->row, c->row + 1, tables, pool, &local, &passed);
    const bool was_in = std::binary_search(
        a.filtered.begin(), a.filtered.end(), static_cast<int32_t>(c->row));
    exact = was_in == !passed.empty() &&
            !(was_in && a.indexes.count(c->col) > 0);
  }
  *cost += local.now();
  return exact;
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

const HashIndex* PreparedQuery::index(int t, int col) const {
  const auto& indexes = data_->artifacts[static_cast<size_t>(t)]->indexes;
  auto it = indexes.find(col);
  return it == indexes.end() ? nullptr : it->second.get();
}

Result<std::unique_ptr<PreparedQuery>> PreparedQuery::Prepare(
    const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
    VirtualClock* clock, const PrepareOptions& opts) {
  auto data = std::make_shared<Data>();
  data->tables = query->TablePtrs();
  const int m = static_cast<int>(data->tables.size());
  data->artifacts.resize(static_cast<size_t>(m));
  auto view = [&]() {
    clock->Tick(data->preprocess_cost);
    auto pq = std::unique_ptr<PreparedQuery>(new PreparedQuery());
    pq->query_ = query;
    pq->info_ = info;
    pq->pool_ = pool;
    pq->clock_ = clock;
    pq->data_ = std::move(data);
    for (const Table* table : pq->data_->tables) {
      std::vector<JoinKeyView>& views = pq->key_views_.emplace_back();
      for (int c = 0; c < table->schema().num_columns(); ++c) {
        views.emplace_back(table->column(c));
      }
    }
    return pq;
  };

  // Constant predicates decide emptiness without touching data. Their
  // (typically negligible) evaluation cost counts as pre-processing and is
  // paid by every execution: a false one skips every table artifact —
  // nothing is scanned, fetched or cached for it.
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
      for (auto& a : data->artifacts) a = kEmpty;
      return view();
    }
  }

  // Per-table artifacts (filter + that table's equi-join indexes). With a
  // cache, each table follows the claim-all protocol (prepared_cache.h):
  // try-claim every table up front (never blocking), build and publish
  // every owned claim, and only then wait on other executions' in-flight
  // builds. Deadlock-free because no execution blocks while holding an
  // unpublished claim, and a full miss still builds all m tables at once.
  // A claim whose stale artifact survives the table's row changes since
  // its stamp republishes it under the new stamp instead of building.
  PreparedCache* cache = opts.cache;
  struct Claim {
    std::string key;
    TableStamp stamp;
    std::shared_ptr<void> pending;  // another execution's in-flight build
  };
  std::vector<Claim> claims(cache != nullptr ? static_cast<size_t>(m) : 0);
  auto revalidate = [&](int t, const PreparedCache::StaleArtifact& stale)
      -> std::shared_ptr<const TableArtifact> {
    if (!Revalidate(data->tables, pool, *info, t, stale,
                    &data->preprocess_cost)) {
      return nullptr;
    }
    const Claim& c = claims[static_cast<size_t>(t)];
    cache->PublishTable(c.key, c.stamp, stale.artifact, /*revalidated=*/true);
    return stale.artifact;
  };
  std::vector<int> fresh;  // built here: owned claims or private builds
  for (int t = 0; t < m; ++t) {
    if (cache == nullptr) {
      fresh.push_back(t);
      continue;
    }
    const Table* table = data->tables[static_cast<size_t>(t)];
    Claim& c = claims[static_cast<size_t>(t)];
    c.key = TableArtifactKey(*table, info->unary_preds(t),
                             EquiJoinColumns(*info, t),
                             opts.build_hash_indexes);
    c.stamp = TableStamp{table->id(), table->data_version()};
    std::shared_ptr<const TableArtifact>& slot =
        data->artifacts[static_cast<size_t>(t)];
    PreparedCache::TableTryClaim claim = cache->TryAcquireTable(c.key, c.stamp);
    slot = std::move(claim.artifact);
    c.pending = std::move(claim.pending);
    if (claim.builder) slot = revalidate(t, claim.stale);
    if (slot != nullptr) {
      ++data->tables_from_cache;
    } else if (c.pending == nullptr) {
      fresh.push_back(t);
    }
  }
  auto build = [&](const std::vector<int>& ts) {
    data->preprocess_cost +=
        BuildArtifacts(data->tables, pool, *info, ts, opts, &data->artifacts);
    if (cache == nullptr) return;
    data->tables_reprepared += static_cast<int>(ts.size());
    for (int t : ts) {
      const Claim& c = claims[static_cast<size_t>(t)];
      cache->PublishTable(c.key, c.stamp, data->artifacts[static_cast<size_t>(t)]);
    }
  };
  build(fresh);
  // Redeem the in-flight tokens — safe to block now, every owned claim is
  // published. A wait can hand back a builder claim (the other execution
  // abandoned, or published under another stamp): build and publish it
  // before waiting on anything else.
  for (int t = 0; t < static_cast<int>(claims.size()); ++t) {
    Claim& c = claims[static_cast<size_t>(t)];
    if (c.pending == nullptr) continue;
    PreparedCache::TableClaim claim = cache->WaitTable(c.key, c.stamp, c.pending);
    if (claim.builder) claim.artifact = revalidate(t, claim.stale);
    if (claim.artifact != nullptr) {
      data->artifacts[static_cast<size_t>(t)] = std::move(claim.artifact);
      ++data->tables_from_cache;
    } else {
      build({t});
    }
  }

  for (const auto& a : data->artifacts) {
    if (a->filtered.empty()) data->trivially_empty = true;
  }
  return view();
}

}  // namespace skinner
