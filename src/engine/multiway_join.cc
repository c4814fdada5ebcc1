#include "engine/multiway_join.h"

#include <algorithm>

namespace skinner {

std::vector<JoinStep> BuildJoinSteps(const PreparedQuery& pq,
                                     const std::vector<int>& order) {
  const QueryInfo& info = pq.info();
  std::vector<JoinStep> steps;
  steps.reserve(order.size());
  TableSet prefix = 0;
  for (int t : order) {
    JoinStep step;
    step.table = t;
    step.rows = pq.filtered_rows(t).data();
    step.card = pq.cardinality(t);
    TableSet with_t = prefix | TableBit(t);
    for (const PredInfo* p : info.NewlyApplicable(with_t, t)) {
      // Binary equality between t and an earlier table?
      const Expr* e = p->expr;
      bool is_equi = false;
      if (e->kind == ExprKind::kBinaryOp && e->bin_op == BinOp::kEq &&
          e->children[0]->kind == ExprKind::kColumnRef &&
          e->children[1]->kind == ExprKind::kColumnRef) {
        const Expr* a = e->children[0].get();
        const Expr* b = e->children[1].get();
        const Expr* mine = nullptr;
        const Expr* other = nullptr;
        if (a->table_idx == t && b->table_idx != t) {
          mine = a;
          other = b;
        } else if (b->table_idx == t && a->table_idx != t) {
          mine = b;
          other = a;
        }
        if (mine != nullptr) {
          EquiProbe probe;
          probe.other_table = other->table_idx;
          probe.index = pq.index(t, mine->column_idx);
          probe.this_keys = pq.key_view(t, mine->column_idx);
          probe.other_keys = pq.key_view(other->table_idx, other->column_idx);
          step.eq.push_back(probe);
          is_equi = true;
        }
      }
      if (!is_equi) step.checks.push_back(e);
    }
    // Pick the first index-backed equality as the driver.
    for (size_t i = 0; i < step.eq.size(); ++i) {
      if (step.eq[i].index != nullptr) {
        step.driver = static_cast<int>(i);
        break;
      }
    }
    steps.push_back(std::move(step));
    prefix = with_t;
  }
  return steps;
}

JoinCursor::JoinCursor(const PreparedQuery* pq, std::vector<JoinStep> steps)
    : pq_(pq),
      steps_(std::move(steps)),
      binding_(static_cast<size_t>(pq->num_tables()), 0),
      probe_cache_(steps_.size()),
      lookahead_(steps_.size()) {}

HashIndex::Postings JoinCursor::ProbePostings(int depth, const EquiProbe& p,
                                              uint64_t key,
                                              bool* fresh) const {
  ProbeCache& c = probe_cache_[static_cast<size_t>(depth)];
  if (c.valid && c.key == key) {
    if (fresh != nullptr) *fresh = false;
    return c.postings;
  }
  const HashIndex::Postings* la =
      lookahead_[static_cast<size_t>(depth)].Find(key);
  const HashIndex::Postings postings = la != nullptr ? *la : p.index->Find(key);
  c.valid = true;
  c.key = key;
  c.postings = postings;
  if (fresh != nullptr) *fresh = true;
  return postings;
}

void JoinCursor::BatchProbeNext(int depth, const int32_t* cand, size_t n,
                                uint64_t window_id) const {
  const size_t next = static_cast<size_t>(depth) + 1;
  if (next >= steps_.size()) return;
  const JoinStep& ns = steps_[next];
  if (ns.driver < 0) return;
  const EquiProbe& np = ns.eq[static_cast<size_t>(ns.driver)];
  if (np.other_table != steps_[static_cast<size_t>(depth)].table) return;
  Lookahead& guard = lookahead_[next];
  if (guard.window_valid && guard.window == window_id) return;
  guard.window = window_id;
  guard.window_valid = true;
  uint64_t keys[Lookahead::kWay];
  size_t k = 0;
  const int32_t* rows = steps_[static_cast<size_t>(depth)].rows;
  for (size_t i = 0; i < n && k < Lookahead::kWay; ++i) {
    const int64_t row = rows[cand[i]];
    if (np.other_keys.IsNull(row)) continue;  // a NULL binding never probes
    keys[k++] = np.other_keys.Key(row);
  }
  guard.count = 0;
  if (k == 0) return;
  HashIndex::Postings out[Lookahead::kWay];
  np.index->FindBatch(keys, k, out);
  for (size_t i = 0; i < k; ++i) guard.entries[i] = {keys[i], out[i]};
  guard.count = k;
}

uint64_t JoinCursor::ProbeKey(const EquiProbe& p, bool* is_null) const {
  const int64_t row = binding_[static_cast<size_t>(p.other_table)];
  if (p.other_keys.IsNull(row)) {
    *is_null = true;
    return 0;
  }
  *is_null = false;
  return p.other_keys.Key(row);
}

int64_t JoinCursor::FirstCandidate(int depth, int64_t lower) const {
  const JoinStep& s = steps_[static_cast<size_t>(depth)];
  const int64_t card = s.card;
  if (s.driver >= 0) {
    const EquiProbe& p = s.eq[static_cast<size_t>(s.driver)];
    bool null = false;
    uint64_t key = ProbeKey(p, &null);
    if (null) return -1;
    bool fresh = false;
    HashIndex::Postings postings = ProbePostings(depth, p, key, &fresh);
    const int32_t* it = std::lower_bound(postings.begin(), postings.end(),
                                         static_cast<int32_t>(lower));
    if (it == postings.end()) return -1;
    // A freshly fetched candidate window: batch-probe the next table's
    // driving keys over it before descending (prefetched descent). Never
    // charged — candidate enumeration does not tick the clock.
    if (fresh) {
      BatchProbeNext(depth, it, static_cast<size_t>(postings.end() - it),
                     /*window_id=*/key);
    }
    return *it;
  }
  if (lower >= card) return -1;
  if (depth + 1 < static_cast<int>(steps_.size())) {
    // Scan-driven window (leftmost table or no usable index): the
    // candidates are simply the next positions in order.
    int32_t scan[Lookahead::kWay];
    const size_t n = static_cast<size_t>(
        std::min<int64_t>(card - lower, Lookahead::kWay));
    for (size_t i = 0; i < n; ++i) {
      scan[i] = static_cast<int32_t>(lower + static_cast<int64_t>(i));
    }
    BatchProbeNext(depth, scan, n,
                   /*window_id=*/static_cast<uint64_t>(lower));
  }
  return lower;
}

int64_t JoinCursor::NextCandidate(int depth, int64_t pos) const {
  const JoinStep& s = steps_[static_cast<size_t>(depth)];
  const int64_t card = s.card;
  if (s.driver >= 0) {
    const EquiProbe& p = s.eq[static_cast<size_t>(s.driver)];
    bool null = false;
    uint64_t key = ProbeKey(p, &null);
    if (null) return -1;
    HashIndex::Postings postings = ProbePostings(depth, p, key);
    const int32_t* it = std::upper_bound(postings.begin(), postings.end(),
                                         static_cast<int32_t>(pos));
    return it == postings.end() ? -1 : *it;
  }
  const int64_t next = pos + 1;
  if (next >= card) return -1;
  // Long scans (the forced-order executor's leftmost table advances here,
  // not through FirstCandidate) refresh the lookahead at every aligned
  // window boundary: batch-probe the next table's driving keys for the
  // upcoming kWay positions. A pure accelerator — never charged, results
  // unchanged — exactly like FirstCandidate's scan-driven window.
  if (depth + 1 < static_cast<int>(steps_.size()) &&
      (next & static_cast<int64_t>(Lookahead::kWay - 1)) == 0) {
    int32_t scan[Lookahead::kWay];
    const size_t n =
        static_cast<size_t>(std::min<int64_t>(card - next, Lookahead::kWay));
    for (size_t i = 0; i < n; ++i) {
      scan[i] = static_cast<int32_t>(next + static_cast<int64_t>(i));
    }
    BatchProbeNext(depth, scan, n, /*window_id=*/static_cast<uint64_t>(next));
  }
  return next;
}

bool JoinCursor::Check(int depth) const {
  const JoinStep& s = steps_[static_cast<size_t>(depth)];
  // Equality checks beyond the driver (or all of them when scanning).
  for (size_t i = 0; i < s.eq.size(); ++i) {
    if (static_cast<int>(i) == s.driver) continue;
    const EquiProbe& p = s.eq[i];
    const int64_t my_row = binding_[static_cast<size_t>(s.table)];
    if (p.this_keys.IsNull(my_row)) return false;
    bool null = false;
    const uint64_t other_key = ProbeKey(p, &null);
    if (null) return false;
    if (p.this_keys.Key(my_row) != other_key) return false;
  }
  if (!s.checks.empty()) {
    EvalContext ctx = pq_->MakeEvalContext(binding_.data());
    if (clock_override_ != nullptr) ctx.clock = clock_override_;
    for (const Expr* e : s.checks) {
      if (!EvalPredicate(*e, ctx)) return false;
    }
  }
  return true;
}

}  // namespace skinner
