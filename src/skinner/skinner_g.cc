#include "skinner/skinner_g.h"

#include <algorithm>

namespace skinner {

int PyramidTimeoutScheme::NextLevel() {
  // L <- max{ L | forall l < L : n_l >= n_L + 2^L } (paper Algorithm 1).
  int best = 0;
  for (int L = 1; L < 63; ++L) {
    uint64_t nL = static_cast<size_t>(L) < n_.size() ? n_[static_cast<size_t>(L)] : 0;
    uint64_t need = nL + (1ull << L);
    bool ok = true;
    for (int l = 0; l < L; ++l) {
      uint64_t nl = static_cast<size_t>(l) < n_.size() ? n_[static_cast<size_t>(l)] : 0;
      if (nl < need) {
        ok = false;
        break;
      }
    }
    if (ok) best = L;
  }
  if (n_.size() <= static_cast<size_t>(best)) n_.resize(static_cast<size_t>(best) + 1, 0);
  n_[static_cast<size_t>(best)] += (1ull << best);
  return best;
}

SkinnerGEngine::SkinnerGEngine(const PreparedQuery* pq,
                               const SkinnerGOptions& opts)
    : pq_(pq), opts_(opts) {
  const int m = pq->num_tables();
  batch_size_.resize(static_cast<size_t>(m));
  num_batches_.resize(static_cast<size_t>(m));
  batches_done_.assign(static_cast<size_t>(m), 0);
  for (int t = 0; t < m; ++t) {
    int64_t card = pq->cardinality(t);
    int64_t bs = std::max<int64_t>(
        1, (card + opts.batches_per_table - 1) / opts.batches_per_table);
    batch_size_[static_cast<size_t>(t)] = bs;
    num_batches_[static_cast<size_t>(t)] = card == 0 ? 0 : (card + bs - 1) / bs;
  }
  if (pq->trivially_empty()) finished_ = true;
}

JoinOrderUct* SkinnerGEngine::TreeFor(int level) {
  auto it = trees_.find(level);
  if (it != trees_.end()) return it->second.get();
  UctOptions u;
  u.explore_weight = opts_.uct_weight;
  u.policy = opts_.policy;
  u.seed = opts_.seed + static_cast<uint64_t>(level) * 7919;
  auto tree = std::make_unique<JoinOrderUct>(&pq_->info(), u);
  JoinOrderUct* ptr = tree.get();
  trees_.emplace(level, std::move(tree));
  return ptr;
}

std::vector<int64_t> SkinnerGEngine::MinPositions() const {
  std::vector<int64_t> min_pos(batches_done_.size());
  for (size_t t = 0; t < batches_done_.size(); ++t) {
    min_pos[t] = std::min<int64_t>(batches_done_[t] * batch_size_[t],
                                   pq_->cardinality(static_cast<int>(t)));
  }
  return min_pos;
}

bool SkinnerGEngine::Step(uint64_t until, ResultSet* out) {
  VirtualClock* clock = pq_->clock();
  // Termination: all batches of one table processed (Algorithm 1 line 17).
  for (size_t t = 0; t < batches_done_.size(); ++t) {
    if (batches_done_[t] >= num_batches_[t]) {
      finished_ = true;
      return true;
    }
  }
  int level = pyramid_.NextLevel();
  stats_.max_level_used = std::max(stats_.max_level_used, level);
  uint64_t timeout = (1ull << level) * opts_.timeout_unit;
  uint64_t iter_deadline = std::min(clock->now() + timeout, until);

  JoinOrderUct* tree = TreeFor(level);
  std::vector<int> order;
  tree->Choose(&order);
  int leftmost = order[0];

  ForcedExecOptions fo;
  fo.min_pos = MinPositions();
  fo.left_from = batches_done_[static_cast<size_t>(leftmost)] *
                 batch_size_[static_cast<size_t>(leftmost)];
  fo.left_to = std::min<int64_t>(
      fo.left_from + batch_size_[static_cast<size_t>(leftmost)],
      pq_->cardinality(leftmost));
  fo.deadline = iter_deadline;

  // The black-box engine buffers results; commit only on success (timed-out
  // partial results cannot be trusted or reused — paper Section 4.3).
  std::vector<PosTuple> scratch;
  ForcedExecResult r;
  if (opts_.engine == GenericEngineKind::kVolcano) {
    r = ExecuteVolcano(*pq_, order, fo, &scratch);
  } else {
    BlockExecOptions bo;
    static_cast<ForcedExecOptions&>(bo) = fo;
    r = ExecuteBlock(*pq_, order, bo, &scratch);
  }
  ++stats_.iterations;
  if (r.completed) {
    ++stats_.successes;
    batches_done_[static_cast<size_t>(leftmost)] += 1;
    for (const auto& tup : scratch) out->Append(tup);
    tree->RewardUpdate(order, 1.0);
  } else {
    tree->RewardUpdate(order, 0.0);
  }
  stats_.level_time = pyramid_.level_time();
  for (size_t t = 0; t < batches_done_.size(); ++t) {
    if (batches_done_[t] >= num_batches_[t]) finished_ = true;
  }
  return finished_;
}

bool SkinnerGEngine::RunUntil(uint64_t until, ResultSet* out) {
  VirtualClock* clock = pq_->clock();
  while (!finished_ && clock->now() < until) {
    if (clock->now() >= opts_.deadline) {
      stats_.timed_out = true;
      break;
    }
    Step(std::min(until, opts_.deadline), out);
  }
  return finished_;
}

Status SkinnerGEngine::Run(ResultSet* out) {
  RunUntil(opts_.deadline, out);
  if (!finished_ && pq_->clock()->now() >= opts_.deadline) {
    stats_.timed_out = true;
  }
  return Status::OK();
}

}  // namespace skinner
