#include "skinner/progress.h"

namespace skinner {

bool ProgressTree::LexLess(const std::vector<int64_t>& a,
                           const std::vector<int64_t>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return a.size() < b.size();
}

void ProgressTree::Backup(const std::vector<int>& order,
                          const JoinState& state) {
  Node* node = &root_;
  frontier_.clear();
  for (int k = 0; k <= state.depth; ++k) {
    int t = order[static_cast<size_t>(k)];
    auto it = node->children.find(t);
    if (it == node->children.end()) {
      it = node->children.emplace(t, std::make_unique<Node>()).first;
      ++num_nodes_;
    }
    node = it->second.get();
    frontier_.push_back(state.pos[static_cast<size_t>(k)]);
    if (!node->has_frontier || LexLess(node->frontier, frontier_)) {
      node->frontier = frontier_;
      node->has_frontier = true;
    }
  }
  // Exact state on the deepest node reached for this order. We key the
  // exact state by the bound prefix (not the full order): resuming needs
  // exactly the bound positions.
  node->exact.depth = state.depth;
  node->exact.pos.assign(state.pos.begin(),
                         state.pos.begin() + state.depth + 1);
  node->has_exact = true;
}

bool ProgressTree::Restore(const std::vector<int>& order,
                           JoinState* state) const {
  const Node* node = &root_;
  const std::vector<int64_t>* best = nullptr;  // resume positions
  int depth = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    auto it = node->children.find(order[k]);
    if (it == node->children.end()) break;
    node = it->second.get();
    if (node->has_frontier &&
        (best == nullptr || LexLess(*best, node->frontier))) {
      best = &node->frontier;
      depth = static_cast<int>(best->size()) - 1;
    }
    if (node->has_exact &&
        (best == nullptr || !LexLess(node->exact.pos, *best))) {
      best = &node->exact.pos;
      depth = node->exact.depth;
    }
  }
  if (best == nullptr) return false;
  state->pos.assign(order.size(), -1);
  std::copy(best->begin(), best->end(), state->pos.begin());
  state->depth = depth;
  return true;
}

SharedProgress::SharedProgress(const std::vector<int64_t>& cardinalities,
                               int num_tables, int target_chunks,
                               int64_t min_chunk_rows) {
  tables_ = std::vector<TableState>(cardinalities.size());
  views_.resize(cardinalities.size());
  target_chunks = std::max(target_chunks, 1);
  min_chunk_rows = std::max<int64_t>(min_chunk_rows, 1);
  for (size_t t = 0; t < cardinalities.size(); ++t) {
    TableState& ts = tables_[t];
    ts.card = cardinalities[t];
    const int64_t chunk_size = std::max(
        min_chunk_rows, (ts.card + target_chunks - 1) / target_chunks);
    // Every table gets at least one chunk, even at cardinality 0 (the
    // chunk [0, 0) is born complete): a zero-chunk table would produce
    // empty per-slice work lists and division hazards downstream.
    const int n = std::max<int64_t>(
        1, (ts.card + chunk_size - 1) / chunk_size);
    ts.chunks.reserve(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) {
      auto chunk = std::make_unique<Chunk>();
      chunk->lo = chunk_size * c;
      chunk->hi = std::min(chunk_size * (c + 1), ts.card);
      chunk->offset.store(chunk->lo, std::memory_order_relaxed);
      chunk->progress = std::make_unique<ProgressTree>(num_tables);
      ts.chunks.push_back(std::move(chunk));
    }
    RebuildView(static_cast<int>(t));
  }
}

void SharedProgress::RebuildView(int t) {
  TableState& ts = tables_[static_cast<size_t>(t)];
  const size_t n = ts.chunks.size();
  ts.sorted_lo.resize(n);
  ts.sorted_off.resize(n);
  // Sort chunk ids by lower bound (splits append out of position order).
  std::vector<size_t> by_lo(n);
  for (size_t i = 0; i < n; ++i) by_lo[i] = i;
  std::sort(by_lo.begin(), by_lo.end(), [&](size_t a, size_t b) {
    return ts.chunks[a]->lo < ts.chunks[b]->lo;
  });
  for (size_t k = 0; k < n; ++k) {
    ts.sorted_lo[k] = ts.chunks[by_lo[k]]->lo;
    ts.sorted_off[k] = &ts.chunks[by_lo[k]]->offset;
  }
  // Recompute the first-incomplete cursor for the new ordering (the
  // barrier context makes all offsets visible, so this is exact here).
  int k = 0;
  while (k < static_cast<int>(n)) {
    const int64_t hi = k + 1 < static_cast<int>(n) ? ts.sorted_lo[k + 1]
                                                   : ts.card;
    if (ts.sorted_off[k]->load(std::memory_order_relaxed) < hi) break;
    ++k;
  }
  ts.first_incomplete.store(k, std::memory_order_relaxed);
  PublishedOffsets& v = views_[static_cast<size_t>(t)];
  v.lo = ts.sorted_lo.data();
  v.offset = ts.sorted_off.data();
  v.cardinality = ts.card;
  v.num_chunks = n;
}

void SharedProgress::Publish(int t, int c, int64_t p) {
  TableState& ts = tables_[static_cast<size_t>(t)];
  Chunk& ch = chunk(t, c);
  p = std::min(p, ch.hi);
  int64_t cur = ch.offset.load(std::memory_order_relaxed);
  while (cur < p && !ch.offset.compare_exchange_weak(
                        cur, p, std::memory_order_release,
                        std::memory_order_relaxed)) {
  }
  // Advance the contiguous completed prefix past any chunks that are now
  // complete, walking the position-sorted view. Every value involved is
  // monotone within a slice, so racing publishers can only under-advance
  // (conservative), never over-advance.
  const int n = static_cast<int>(ts.sorted_lo.size());
  int k = ts.first_incomplete.load(std::memory_order_relaxed);
  while (k < n) {
    const int64_t hi = k + 1 < n ? ts.sorted_lo[k + 1] : ts.card;
    if (ts.sorted_off[k]->load(std::memory_order_relaxed) < hi) break;
    ++k;
  }
  int cur_k = ts.first_incomplete.load(std::memory_order_relaxed);
  while (cur_k < k && !ts.first_incomplete.compare_exchange_weak(
                          cur_k, k, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
  int64_t pfx =
      k >= n ? ts.card
             : ts.sorted_off[k]->load(std::memory_order_relaxed);
  int64_t cur_p = ts.prefix.load(std::memory_order_relaxed);
  while (cur_p < pfx && !ts.prefix.compare_exchange_weak(
                            cur_p, pfx, std::memory_order_release,
                            std::memory_order_relaxed)) {
  }
}

bool SharedProgress::TableComplete(int t) const {
  const TableState& ts = tables_[static_cast<size_t>(t)];
  if (ts.prefix.load(std::memory_order_relaxed) >= ts.card) return true;
  for (const auto& ch : ts.chunks) {
    if (ch->offset.load(std::memory_order_relaxed) < ch->hi) return false;
  }
  return true;
}

bool SharedProgress::AnyTableComplete() const {
  for (size_t t = 0; t < tables_.size(); ++t) {
    if (TableComplete(static_cast<int>(t))) return true;
  }
  return false;
}

size_t SharedProgress::num_progress_nodes() const {
  size_t n = 0;
  for (const TableState& ts : tables_) {
    for (const auto& ch : ts.chunks) n += ch->progress->num_nodes();
  }
  return n;
}

int SharedProgress::SplitChunk(int t, int c) {
  TableState& ts = tables_[static_cast<size_t>(t)];
  Chunk& ch = chunk(t, c);
  const int64_t off = ch.offset.load(std::memory_order_relaxed);
  const int64_t start = std::max(off, ch.lo);
  if (ch.hi - start < 2) return -1;  // nothing meaningful to split
  const int64_t mid = start + (ch.hi - start) / 2;
  // The parent keeps [lo, mid) and its progress tree: every state stored
  // in it has its leftmost position <= the published offset (suspension
  // publishes everything below its position first), and offset <= start <
  // mid, so no stored state refers past the shrunk bound.
  auto child = std::make_unique<Chunk>();
  child->lo = mid;
  child->hi = ch.hi;
  child->offset.store(mid, std::memory_order_relaxed);
  child->progress = std::make_unique<ProgressTree>(num_tables());
  // Move half the parent's heat so a still-dominant half keeps a signal
  // strong enough to split again next slice.
  const uint64_t heat = ch.steps.load(std::memory_order_relaxed) / 2;
  ch.steps.store(heat, std::memory_order_relaxed);
  child->steps.store(heat, std::memory_order_relaxed);
  ch.hi = mid;
  ts.chunks.push_back(std::move(child));
  ++num_splits_;
  RebuildView(t);
  return static_cast<int>(ts.chunks.size()) - 1;
}

int SharedProgress::IncompleteChunks(int t) const {
  const TableState& ts = tables_[static_cast<size_t>(t)];
  int n = 0;
  for (const auto& ch : ts.chunks) {
    if (ch->offset.load(std::memory_order_relaxed) < ch->hi) ++n;
  }
  return n;
}

}  // namespace skinner
