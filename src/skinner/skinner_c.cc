#include "skinner/skinner_c.h"

#include <algorithm>

namespace skinner {

namespace {
/// Chunk granularity for T>1: each table is cut into about
/// kChunksPerThread * num_threads chunks...
constexpr int kChunksPerThread = 8;
/// ...but never into chunks smaller than this many positions, so claim
/// and publication overhead stays negligible per chunk.
constexpr int64_t kMinChunkRows = 16;
/// Claim window: each slice serves at most kClaimWindowPerWorker *
/// num_threads incomplete chunks, taken in position order from the table's
/// completion frontier. Serving from the frontier keeps the published
/// completed prefix contiguous (so other orders' descents skip it) and
/// preserves the sequential engine's learning signal: a freshly explored
/// leftmost table must grind its frontier — on skew, the expensive front —
/// instead of harvesting easy rewards from cheap chunks anywhere in the
/// table, which made UCT flip between leftmost tables and re-derive every
/// table's expensive region.
constexpr size_t kClaimWindowPerWorker = 2;
/// Warm-start prior strength: the hinted order behaves like
/// kWarmStartVisits slices of reward kWarmStartReward already run. The
/// reward is deliberately tiny (the scale of real per-slice progress
/// rewards) so genuine rewards dominate quickly.
constexpr int64_t kWarmStartVisits = 2;
constexpr double kWarmStartReward = 1e-3;

UctOptions MakeUctOptions(const SkinnerCOptions& opts) {
  UctOptions u;
  u.explore_weight = opts.uct_weight;
  u.policy = opts.policy;
  u.seed = opts.seed;
  return u;
}

}  // namespace

SkinnerCEngine::SkinnerCEngine(const PreparedQuery* pq,
                               const SkinnerCOptions& opts)
    : pq_(pq),
      opts_(opts),
      uct_(&pq->info(), MakeUctOptions(opts)) {
  if (opts_.warm_start_order.size() ==
      static_cast<size_t>(pq->num_tables())) {
    uct_.SeedPriors(opts_.warm_start_order, kWarmStartVisits,
                    kWarmStartReward);
  }
}

void SkinnerCEngine::InitWorkers() {
  const int m = pq_->num_tables();
  const int T = std::max(1, opts_.num_threads);
  workers_.reserve(static_cast<size_t>(T));
  for (int j = 0; j < T; ++j) {
    auto w = std::make_unique<Worker>(m);
    w->id = j;
    workers_.push_back(std::move(w));
  }
  if (T == 1) {
    workers_[0]->offset.assign(static_cast<size_t>(m), 0);
    return;
  }
  std::vector<int64_t> cards(static_cast<size_t>(m));
  for (int t = 0; t < m; ++t) {
    cards[static_cast<size_t>(t)] = pq_->cardinality(t);
  }
  shared_ = std::make_unique<SharedProgress>(cards, m, kChunksPerThread * T,
                                             kMinChunkRows);
  work_next_ =
      std::make_unique<std::atomic<size_t>[]>(static_cast<size_t>(T));
  work_end_.assign(static_cast<size_t>(T), 0);
}

JoinCursor* SkinnerCEngine::CursorFor(Worker* w,
                                      const std::vector<int>& order) {
  auto it = w->cursors.find(order);
  if (it != w->cursors.end()) return it->second.get();
  auto cursor = std::make_unique<JoinCursor>(pq_, BuildJoinSteps(*pq_, order));
  if (workers_.size() > 1) cursor->SetClock(&w->clock);
  JoinCursor* ptr = cursor.get();
  w->cursors.emplace(order, std::move(cursor));
  return ptr;
}

JoinState SkinnerCEngine::RestoreState(Worker* w, const std::vector<int>& order,
                                       JoinCursor* cursor) {
  JoinState state;
  state.pos.assign(order.size(), -1);
  const int t0 = order[0];
  if (!w->progress.Restore(order, &state)) {
    state.depth = 0;
    state.pos[0] = w->offset[static_cast<size_t>(t0)];
    if (state.pos[0] >= pq_->cardinality(t0)) state.pos[0] = -1;
    return state;
  }
  // Fast-forward past offsets: tuples below offset[t] are fully joined
  // already. Walk depths in order; at the first position that fell behind
  // an advanced offset, re-derive the candidate and truncate the state.
  for (int d = 0; d <= state.depth; ++d) {
    const int t = order[static_cast<size_t>(d)];
    const int64_t off = w->offset[static_cast<size_t>(t)];
    if (state.pos[static_cast<size_t>(d)] < off) {
      state.pos[static_cast<size_t>(d)] = cursor->FirstCandidate(d, off);
      state.depth = d;
      break;
    }
    cursor->Bind(d, state.pos[static_cast<size_t>(d)]);
  }
  return state;
}

double SkinnerCEngine::ProgressValue(const std::vector<int>& order,
                                     const JoinState& state) const {
  // Paper 4.5: sum of tuple index deltas, each scaled down by the product
  // of the cardinalities of its table and all preceding tables. Computed
  // here as an absolute potential; the reward is the per-slice increase.
  double value = 0;
  double scale = 1;
  for (int d = 0; d <= state.depth; ++d) {
    int64_t card = pq_->cardinality(order[static_cast<size_t>(d)]);
    if (card == 0) return 1.0;
    scale /= static_cast<double>(card);
    int64_t p = state.pos[static_cast<size_t>(d)];
    if (p < 0) p = 0;
    value += static_cast<double>(p) * scale;
  }
  return value;
}

double SkinnerCEngine::RewardPotential(const std::vector<int>& order,
                                       const JoinState& state) const {
  if (opts_.reward == RewardKind::kWeightedProgress) {
    return ProgressValue(order, state);
  }
  return state.pos[0] < 0
             ? 1.0
             : static_cast<double>(state.pos[0]) /
                   static_cast<double>(
                       std::max<int64_t>(pq_->cardinality(order[0]), 1));
}

void SkinnerCEngine::RunWorkerSlice(Worker* w, const std::vector<int>& order) {
  const int t0 = order[0];
  JoinCursor* cursor = CursorFor(w, order);
  JoinState state = RestoreState(w, order, cursor);

  double before = RewardPotential(order, state);

  MultiwayJoinSpec spec;
  spec.left_to = pq_->cardinality(t0);
  spec.lower = w->offset.data();
  spec.budget = opts_.slice_budget;
  spec.charge_backtrack = true;
  spec.clock = pq_->clock();

  JoinLoopExit exit = MultiwayJoinLoop(
      cursor, order, spec, &state, &w->loop_stats,
      [&](const PosTuple& tuple) { w->local.Append(tuple); },
      [&](int64_t p) {
        int64_t& off = w->offset[static_cast<size_t>(t0)];
        off = std::max(off, p);
      });
  bool done = exit == JoinLoopExit::kCompleted;
  double after = done ? 1.0 : RewardPotential(order, state);
  w->slice_reward = std::clamp(after - before, 0.0, 1.0);
  w->slice_done = done;
  if (!done) w->progress.Backup(order, state);
}

void SkinnerCEngine::AdaptiveSplit(int leftmost_table) {
  const int T = static_cast<int>(workers_.size());
  // A slice's virtual cost is the slowest worker's clock, so workers
  // idling while one grinds a hot chunk is pure cost. Split while either
  //  (a) there are fewer work units than workers (endgame starvation), or
  //  (b) one chunk has absorbed a majority of all executed steps so far
  //      (a skew hot spot: whoever claims it will dominate the slice),
  // capped at kMaxUnitsPerWorker units so balanced workloads never churn.
  constexpr int kMaxUnitsPerWorker = 4;
  int incomplete = shared_->IncompleteChunks(leftmost_table);
  while (incomplete > 0 && incomplete < kMaxUnitsPerWorker * T) {
    // Hottest splittable chunk; remaining range breaks heat ties (all-zero
    // heat degenerates to largest-remaining, still the best balance bet).
    const int n = shared_->num_chunks(leftmost_table);
    int best = -1;
    uint64_t best_heat = 0;
    uint64_t total_heat = 0;
    int64_t best_remaining = 0;
    for (int c = 0; c < n; ++c) {
      const int64_t remaining = shared_->chunk_hi(leftmost_table, c) -
                                shared_->chunk_offset(leftmost_table, c);
      if (remaining < 2) continue;  // complete or unsplittable
      const uint64_t heat = shared_->chunk_steps(leftmost_table, c);
      total_heat += heat;
      if (best < 0 || heat > best_heat ||
          (heat == best_heat && remaining > best_remaining)) {
        best = c;
        best_heat = heat;
        best_remaining = remaining;
      }
    }
    const bool starving = incomplete < T;
    const bool dominant = best_heat * 2 > total_heat && best_heat > 0;
    if (!starving && !dominant) break;
    if (best < 0 || shared_->SplitChunk(leftmost_table, best) < 0) break;
    ++incomplete;
  }
}

void SkinnerCEngine::BuildSliceWork(int leftmost_table) {
  work_table_ = leftmost_table;
  work_ids_.clear();
  const int n = shared_->num_chunks(leftmost_table);
  for (int c = 0; c < n; ++c) {
    if (!shared_->ChunkComplete(leftmost_table, c)) work_ids_.push_back(c);
  }
  // Serve from the completion frontier: position order, windowed (see
  // kClaimWindowPerWorker). Chunk ids are append-ordered (splits push
  // children at the end), so sort by range.
  std::sort(work_ids_.begin(), work_ids_.end(), [&](int a, int b) {
    return shared_->chunk_lo(leftmost_table, a) <
           shared_->chunk_lo(leftmost_table, b);
  });
  const size_t window = kClaimWindowPerWorker * workers_.size();
  if (work_ids_.size() > window) work_ids_.resize(window);
  // Contiguous per-worker blocks (chunk locality for the common case);
  // the remainder chunks go to the first blocks.
  const size_t T = workers_.size();
  const size_t base = work_ids_.size() / T;
  const size_t rem = work_ids_.size() % T;
  size_t pos = 0;
  for (size_t j = 0; j < T; ++j) {
    work_next_[j].store(pos, std::memory_order_relaxed);
    pos += base + (j < rem ? 1 : 0);
    work_end_[j] = pos;
  }
}

int SkinnerCEngine::ClaimChunk(Worker* w) {
  const int T = static_cast<int>(workers_.size());
  for (int v = 0; v < T; ++v) {
    // Own block first; once it drains, steal from the other workers'
    // blocks in round-robin order. fetch_add hands each list index to
    // exactly one worker, so a chunk is run by one worker per slice.
    const size_t victim = static_cast<size_t>((w->id + v) % T);
    const size_t end = work_end_[victim];
    for (;;) {
      size_t i = work_next_[victim].fetch_add(1, std::memory_order_relaxed);
      if (i >= end) break;
      int id = work_ids_[i];
      // A chunk can complete mid-slice list construction; skip stale ids.
      if (!shared_->ChunkComplete(work_table_, id)) return id;
    }
  }
  return -1;
}

JoinState SkinnerCEngine::RestoreChunkState(int chunk_id,
                                            const std::vector<int>& order,
                                            JoinCursor* cursor) {
  const int t0 = order[0];
  JoinState state;
  state.pos.assign(order.size(), -1);
  const int64_t off = shared_->chunk_offset(t0, chunk_id);
  ProgressTree* progress = shared_->chunk_progress(t0, chunk_id);
  if (!progress->Restore(order, &state)) {
    state.depth = 0;
    state.pos[0] = off;  // the claim guarantees off < chunk_hi
    return state;
  }
  // Fast-forward: at depth 0 past the chunk's published offset; deeper,
  // past any published fully-joined range of that depth's table (possibly
  // advanced by other workers since this state was stored). At the first
  // position that fell behind, re-derive the candidate and truncate.
  const PublishedOffsets* views = shared_->views();
  for (int d = 0; d <= state.depth; ++d) {
    const int t = order[static_cast<size_t>(d)];
    const int64_t p = state.pos[static_cast<size_t>(d)];
    const int64_t low =
        d == 0 ? off : views[static_cast<size_t>(t)].SkipCompleted(p);
    if (p < low) {
      state.pos[static_cast<size_t>(d)] = cursor->FirstCandidate(d, low);
      state.depth = d;
      break;
    }
    cursor->Bind(d, p);
  }
  return state;
}

double SkinnerCEngine::RunChunk(Worker* w, const std::vector<int>& order,
                                int chunk_id, int64_t* budget_left) {
  const int t0 = order[0];
  JoinCursor* cursor = CursorFor(w, order);
  JoinState state = RestoreChunkState(chunk_id, order, cursor);
  const double before = RewardPotential(order, state);

  MultiwayJoinSpec spec;
  spec.left_to = shared_->chunk_hi(t0, chunk_id);
  spec.published = shared_->views();
  spec.budget = *budget_left;
  spec.charge_backtrack = true;
  spec.clock = &w->clock;

  const uint64_t steps_before = w->loop_stats.steps;
  JoinLoopExit exit = MultiwayJoinLoop(
      cursor, order, spec, &state, &w->loop_stats,
      [&](const PosTuple& tuple) { w->local.Append(tuple); },
      [&](int64_t p) { shared_->Publish(t0, chunk_id, p); });
  const uint64_t chunk_steps = w->loop_stats.steps - steps_before;
  *budget_left -= static_cast<int64_t>(chunk_steps);
  // Heat for the adaptive split policy: how much budget this chunk ate.
  shared_->AddChunkSteps(t0, chunk_id, chunk_steps);

  double after;
  if (exit == JoinLoopExit::kCompleted) {
    JoinState end_state;
    end_state.depth = 0;
    end_state.pos.assign(order.size(), -1);
    end_state.pos[0] = spec.left_to;
    after = RewardPotential(order, end_state);
  } else {
    after = RewardPotential(order, state);
    shared_->chunk_progress(t0, chunk_id)->Backup(order, state);
  }
  return std::max(0.0, after - before);
}

void SkinnerCEngine::RunWorkerSliceStealing(Worker* w,
                                            const std::vector<int>& order) {
  int64_t budget_left = opts_.slice_budget;
  double reward = 0;
  while (budget_left > 0) {
    int chunk_id = ClaimChunk(w);
    if (chunk_id < 0) break;
    reward += RunChunk(w, order, chunk_id, &budget_left);
  }
  w->slice_reward = std::clamp(reward, 0.0, 1.0);
  // Completion is tracked through the shared board (CompletedTable), not
  // per worker: a worker that ran out of chunks is not "done" evidence.
  w->slice_done = false;
}

bool SkinnerCEngine::CompletedTable() const {
  if (shared_ != nullptr) return shared_->AnyTableComplete();
  const Worker& w = *workers_[0];
  for (int t = 0; t < pq_->num_tables(); ++t) {
    if (w.offset[static_cast<size_t>(t)] >= pq_->cardinality(t)) return true;
  }
  return false;
}

size_t SkinnerCEngine::AuxiliaryBytes() const {
  const size_t m = static_cast<size_t>(pq_->num_tables());
  size_t progress_nodes = 0;
  for (const auto& w : workers_) progress_nodes += w->progress.num_nodes();
  if (shared_ != nullptr) progress_nodes += shared_->num_progress_nodes();
  size_t result_bytes = 0;
  for (const auto& w : workers_) result_bytes += w->local.bytes();
  return result_bytes +
         progress_nodes * (sizeof(void*) * 4 + sizeof(int64_t) * m / 2) +
         uct_.num_nodes() * (sizeof(void*) * 4 + 24 * m / 2);
}

void SkinnerCEngine::DispatchSlice(const std::vector<int>& order) {
  AdaptiveSplit(order[0]);
  BuildSliceWork(order[0]);
  SchedParallelFor(opts_.scheduler, workers_.size(),
                   static_cast<int>(workers_.size()), [&](size_t j) {
                     RunWorkerSliceStealing(workers_[j].get(), order);
                   });
}

Status SkinnerCEngine::Run(ResultSet* out) {
  if (pq_->trivially_empty()) {
    stats_.final_order = uct_.BestOrder();
    return Status::OK();
  }
  InitWorkers();
  VirtualClock* clock = pq_->clock();
  const size_t T = workers_.size();

  while (!finished_) {
    if (clock->now() >= opts_.deadline) {
      stats_.timed_out = true;
      break;
    }
    // Any table fully consumed as a leftmost table => result complete.
    if (CompletedTable()) {
      finished_ = true;
      break;
    }

    std::vector<int> order = uct_.Choose();
    if (T == 1) {
      RunWorkerSlice(workers_[0].get(), order);
    } else {
      DispatchSlice(order);
      // Merge worker effort under the wall-clock model: the slice costs
      // what the slowest worker spent.
      uint64_t max_delta = 0;
      for (auto& w : workers_) {
        uint64_t delta = w->clock.now() - w->merged_clock;
        w->merged_clock = w->clock.now();
        max_delta = std::max(max_delta, delta);
      }
      clock->Tick(max_delta);
    }

    // Merge rewards into the one shared UCT tree (paper 4.4): the slice's
    // reward is the mean of the per-worker rewards, accumulated in worker
    // order so learning stays deterministic.
    double reward = 0;
    bool all_done = true;
    for (auto& w : workers_) {
      reward += w->slice_reward;
      all_done = all_done && w->slice_done;
    }
    reward /= static_cast<double>(T);
    uct_.RewardUpdate(order, reward);
    ++stats_.slices;
    if (opts_.collect_trace) {
      stats_.order_selections[order] += 1;
      if (stats_.slices % 16 == 1) {
        stats_.tree_growth.emplace_back(stats_.slices, uct_.num_nodes());
      }
      stats_.aux_bytes_trace.push_back(AuxiliaryBytes());
    }
    if (all_done) finished_ = true;
  }

  stats_.worker_busy_cost = 0;
  for (const auto& w : workers_) {
    stats_.worker_busy_cost +=
        workers_.size() > 1 ? w->clock.now() : pq_->clock()->now();
  }
  stats_.uct_nodes = uct_.num_nodes();
  stats_.chunk_splits = shared_ != nullptr ? shared_->num_splits() : 0;
  stats_.progress_nodes = shared_ != nullptr ? shared_->num_progress_nodes()
                                             : 0;
  stats_.intermediate_tuples = 0;
  for (const auto& w : workers_) {
    stats_.progress_nodes += w->progress.num_nodes();
    stats_.intermediate_tuples += w->loop_stats.intermediate_tuples;
  }
  stats_.final_order = uct_.BestOrder();

  // Canonical export: the workers' buffers hold every emitted tuple,
  // re-emits included; the merge drops the duplicates and sorts, so the
  // rows are bit-identical regardless of thread count or thread schedule.
  std::vector<const ResultSet*> parts;
  parts.reserve(workers_.size());
  stats_.emitted_tuples = 0;
  for (const auto& w : workers_) {
    parts.push_back(&w->local);
    stats_.emitted_tuples += w->local.size();
  }
  const size_t before = out->size();
  ResultSet::MergeSortedUnique(parts, out);
  stats_.result_tuples = out->size() - before;
  stats_.auxiliary_bytes = AuxiliaryBytes();
  return Status::OK();
}

}  // namespace skinner
