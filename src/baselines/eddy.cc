#include "baselines/eddy.h"

#include <algorithm>

namespace skinner {

EddyEngine::EddyEngine(const PreparedQuery* pq, const EddyOptions& opts)
    : pq_(pq),
      opts_(opts),
      rng_(opts.seed),
      op_inputs_(static_cast<size_t>(pq->num_tables()), 0),
      op_outputs_(static_cast<size_t>(pq->num_tables()), 0) {}

int EddyEngine::Route(TableSet mask) {
  std::vector<int> elig = pq_->info().EligibleTables(mask);
  // Remove already-bound tables (EligibleTables already excludes them).
  if (elig.size() == 1) return elig[0];
  if (rng_.NextDouble() < opts_.epsilon) {
    return elig[rng_.Uniform(elig.size())];
  }
  // Exploit: lowest observed fan-out first; unobserved operators count as
  // fan-out 1 (optimistic) to force initial exploration.
  double best = 1e300;
  int best_t = elig[0];
  for (int t : elig) {
    uint64_t in = op_inputs_[static_cast<size_t>(t)];
    double fanout = in == 0 ? 1.0
                            : static_cast<double>(op_outputs_[static_cast<size_t>(t)]) /
                                  static_cast<double>(in);
    if (fanout < best) {
      best = fanout;
      best_t = t;
    }
  }
  return best_t;
}

void EddyEngine::Extend(const Partial& partial, int t,
                        std::vector<Partial>* work, ResultSet* out) {
  VirtualClock* clock = pq_->clock();
  const QueryInfo& info = pq_->info();
  TableSet next_mask = partial.mask | TableBit(t);

  // Predicates that become checkable with t bound.
  std::vector<const PredInfo*> preds = info.NewlyApplicable(next_mask, t);
  // Pick an index-backed equality to enumerate candidates, if any.
  const HashIndex* index = nullptr;
  uint64_t probe_key = 0;
  for (const PredInfo* p : preds) {
    const Expr* e = p->expr;
    if (e->kind != ExprKind::kBinaryOp || e->bin_op != BinOp::kEq) continue;
    if (e->children[0]->kind != ExprKind::kColumnRef ||
        e->children[1]->kind != ExprKind::kColumnRef) {
      continue;
    }
    const Expr* mine = e->children[0]->table_idx == t ? e->children[0].get()
                                                       : e->children[1].get();
    const Expr* other = e->children[0]->table_idx == t ? e->children[1].get()
                                                        : e->children[0].get();
    if (mine->table_idx != t || other->table_idx == t) continue;
    if (!Contains(partial.mask, other->table_idx)) continue;
    const HashIndex* idx = pq_->index(t, mine->column_idx);
    if (idx == nullptr) continue;
    const JoinKeyView& keys =
        pq_->key_view(other->table_idx, other->column_idx);
    int64_t row = pq_->base_row(other->table_idx,
                                partial.pos[static_cast<size_t>(other->table_idx)]);
    if (keys.IsNull(row)) return;  // NULL never matches: no extensions
    index = idx;
    probe_key = keys.Key(row);
    break;
  }

  // Bind current rows for predicate evaluation.
  std::vector<int64_t> binding(static_cast<size_t>(pq_->num_tables()), 0);
  for (int b = 0; b < pq_->num_tables(); ++b) {
    if (Contains(partial.mask, b)) {
      binding[static_cast<size_t>(b)] =
          pq_->base_row(b, partial.pos[static_cast<size_t>(b)]);
    }
  }
  EvalContext ctx = pq_->MakeEvalContext(binding.data());

  uint64_t produced = 0;
  auto consider = [&](int64_t p) {
    ++stats_.candidate_checks;
    clock->Tick();
    binding[static_cast<size_t>(t)] = pq_->base_row(t, p);
    for (const PredInfo* pr : preds) {
      if (!EvalPredicate(*pr->expr, ctx)) return;
    }
    Partial ext;
    ext.pos = partial.pos;
    ext.pos[static_cast<size_t>(t)] = static_cast<int32_t>(p);
    ext.mask = next_mask;
    ++produced;
    if (__builtin_popcount(ext.mask) == pq_->num_tables()) {
      out->Append(ext.pos);
    } else {
      work->push_back(std::move(ext));
    }
  };

  if (index != nullptr) {
    for (int32_t p : index->Find(probe_key)) consider(p);
  } else {
    int64_t card = pq_->cardinality(t);
    for (int64_t p = 0; p < card; ++p) consider(p);
  }
  op_inputs_[static_cast<size_t>(t)] += 1;
  op_outputs_[static_cast<size_t>(t)] += produced;
}

Status EddyEngine::Run(ResultSet* out) {
  if (pq_->trivially_empty()) return Status::OK();
  VirtualClock* clock = pq_->clock();
  const int m = pq_->num_tables();

  // Driver: the smallest filtered table (every result contains exactly one
  // of its tuples, so streaming it into the eddy covers the result).
  int driver = 0;
  for (int t = 1; t < m; ++t) {
    if (pq_->cardinality(t) < pq_->cardinality(driver)) driver = t;
  }

  std::vector<Partial> work;  // LIFO: depth-first draining bounds memory
  int64_t driver_card = pq_->cardinality(driver);
  for (int64_t p = 0; p < driver_card; ++p) {
    if (m == 1) {
      PosTuple tuple(static_cast<size_t>(m), -1);
      tuple[static_cast<size_t>(driver)] = static_cast<int32_t>(p);
      out->Append(tuple);
      continue;
    }
    Partial seed;
    seed.pos.assign(static_cast<size_t>(m), -1);
    seed.pos[static_cast<size_t>(driver)] = static_cast<int32_t>(p);
    seed.mask = TableBit(driver);
    work.push_back(std::move(seed));
    while (!work.empty()) {
      if (clock->now() >= opts_.deadline) {
        stats_.timed_out = true;
        return Status::OK();
      }
      Partial cur = std::move(work.back());
      work.pop_back();
      ++stats_.routed_tuples;
      clock->Tick();  // routing decision cost (per tuple!)
      int t = Route(cur.mask);
      Extend(cur, t, &work, out);
    }
  }
  return Status::OK();
}

}  // namespace skinner
