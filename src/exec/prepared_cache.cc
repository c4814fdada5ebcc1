#include "exec/prepared_cache.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/str_util.h"

namespace skinner {

namespace {

/// Warm orders deliberately outlive entry invalidation, so they get their
/// own, fixed-size FIFO ring independent of the byte budget.
constexpr size_t kMaxWarmOrders = 512;

/// Serializes one concrete value unambiguously (typed, length-prefixed
/// strings, doubles by bit pattern).
void AppendValueSignature(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->append("ln");
    return;
  }
  switch (v.type()) {
    case DataType::kInt64:
      out->append(StrFormat("li%lld", static_cast<long long>(v.AsInt())));
      break;
    case DataType::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(d));
      out->append(StrFormat("ld%llx", static_cast<unsigned long long>(bits)));
      break;
    }
    case DataType::kString:
      out->append(StrFormat("ls%zu:", v.AsString().size()));
      out->append(v.AsString());
      break;
  }
}

/// Serializes one bound expression unambiguously: every node contributes a
/// kind tag, its operator/index payload, and parenthesized children, so no
/// two distinct trees share a rendering (strings are length-prefixed; a
/// double's bit pattern distinguishes values ToString would collapse).
/// `table_relative` drops the FROM position from column references — for
/// a single table's predicates, whose references all name that table.
void AppendExprSignature(const Expr& e, bool table_relative,
                         std::string* out) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (table_relative) {
        out->append(StrFormat("c.%d", e.column_idx));
      } else {
        out->append(StrFormat("c%d.%d", e.table_idx, e.column_idx));
      }
      break;
    case ExprKind::kLiteral:
      AppendValueSignature(e.literal, out);
      break;
    case ExprKind::kParam:
      // Parameter-abstracted typed slot: the ordinal plus the inferred
      // type, never a value. Every execution of the template shares this.
      out->append(StrFormat("p%d:%d", e.param_idx,
                            static_cast<int>(e.out_type)));
      break;
    case ExprKind::kBinaryOp:
      out->append(StrFormat("b%d", static_cast<int>(e.bin_op)));
      break;
    case ExprKind::kUnaryOp:
      out->append(StrFormat("u%d", static_cast<int>(e.un_op)));
      break;
    case ExprKind::kFunctionCall:
      out->append(StrFormat("f%zu:", e.func_name.size()));
      out->append(e.func_name);
      break;
    case ExprKind::kAggregate:
      out->append(StrFormat("a%d", static_cast<int>(e.agg)));
      break;
  }
  if (!e.children.empty()) {
    out->push_back('(');
    for (size_t i = 0; i < e.children.size(); ++i) {
      if (i > 0) out->push_back(',');
      AppendExprSignature(*e.children[i], table_relative, out);
    }
    out->push_back(')');
  }
}

}  // namespace

std::string ComputeQuerySignature(const BoundQuery& query) {
  std::string sig;
  sig.reserve(256);
  sig.append("F:");
  for (const BoundTable& t : query.tables) {
    sig.append(StrFormat("%zu:", t.table->name().size()));
    sig.append(ToLower(t.table->name()));
    sig.push_back(';');
  }
  sig.append("|S:");
  for (const BoundSelectItem& item : query.select) {
    AppendExprSignature(*item.expr, false, &sig);
    sig.append(StrFormat(" as %zu:", item.name.size()));
    sig.append(item.name);
    sig.push_back(';');
  }
  sig.append("|W:");
  if (query.where != nullptr) AppendExprSignature(*query.where, false, &sig);
  sig.append("|G:");
  for (const auto& g : query.group_by) {
    AppendExprSignature(*g, false, &sig);
    sig.push_back(';');
  }
  sig.append("|O:");
  for (const BoundOrderItem& o : query.order_by) {
    AppendExprSignature(*o.expr, false, &sig);
    sig.append(o.desc ? "D;" : "A;");
  }
  sig.append(StrFormat("|d%d|L%lld", query.distinct ? 1 : 0,
                       static_cast<long long>(query.limit)));
  return sig;
}

std::string TableArtifactKey(const Table& table,
                             const std::vector<const Expr*>& unary_preds,
                             const std::vector<int>& index_cols,
                             bool build_hash_indexes) {
  std::string key = StrFormat("T%llu|W:",
                              static_cast<unsigned long long>(table.id()));
  for (const Expr* p : unary_preds) {
    AppendExprSignature(*p, /*table_relative=*/true, &key);
    key.push_back(';');
  }
  key.append(build_hash_indexes ? "|i1:" : "|i0");
  if (build_hash_indexes) {
    for (int col : index_cols) key.append(StrFormat("%d,", col));
  }
  return key;
}

PreparedCache::PreparedCache(size_t max_bytes)
    : max_bytes_(max_bytes == 0 ? 1 : max_bytes) {}

void PreparedCache::EvictLocked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_used_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

bool PreparedCache::ReserveLocked(size_t bytes) {
  if (bytes > max_bytes_) return false;
  while (bytes_used_ + bytes > max_bytes_ && !lru_.empty()) {
    ++size_evictions_;
    const std::string victim = lru_.back();  // EvictLocked erases the node
    EvictLocked(victim);
  }
  return bytes_used_ + bytes <= max_bytes_;
}

void PreparedCache::InsertLocked(const std::string& key,
                                 const TableStamp& stamp,
                                 TableArtifactPtr artifact) {
  if (artifact == nullptr) return;
  EvictLocked(key);
  const size_t bytes = kEntryOverheadBytes + artifact->bytes();
  if (!ReserveLocked(bytes)) {
    ++admission_rejected_;
    return;
  }
  lru_.push_front(key);
  Entry e;
  e.stamp = stamp;
  e.artifact = std::move(artifact);
  e.bytes = bytes;
  e.lru_it = lru_.begin();
  bytes_used_ += bytes;
  entries_.emplace(key, std::move(e));
}

PreparedCache::TableArtifactPtr PreparedCache::HitLocked(
    const std::string& key, const TableStamp& stamp, StaleArtifact* stale) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (it->second.stamp != stamp) {
    // Same filter, different data (DML since the build): the artifact is
    // stale — drop it so the re-prepare can take its slot, and let the
    // builder try to revalidate it when it predates the builder's data.
    ++table_invalidations_;
    if (stale != nullptr &&
        it->second.stamp.data_version < stamp.data_version) {
      *stale = StaleArtifact{it->second.artifact, it->second.stamp.data_version};
    }
    EvictLocked(key);
    return nullptr;
  }
  ++table_hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.artifact;
}

PreparedCache::TableClaim PreparedCache::AcquireTable(const std::string& key,
                                                      const TableStamp& stamp) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    StaleArtifact stale;
    TableArtifactPtr hit = HitLocked(key, stamp, &stale);
    if (hit != nullptr) return TableClaim{std::move(hit), false, {}};
    auto inf = inflight_.find(key);
    if (inf == inflight_.end()) {
      ++table_misses_;
      inflight_.emplace(key, std::make_shared<Inflight>());
      return TableClaim{nullptr, true, std::move(stale)};
    }
    // Block on the owner's build instead of re-preparing. The payload
    // travels through the token so an eviction racing between Publish and
    // this wake-up cannot strand us.
    std::shared_ptr<Inflight> token = inf->second;
    ++inflight_waits_;
    token->cv.wait(lock, [&] { return token->done; });
    if (token->artifact != nullptr && token->stamp == stamp) {
      return TableClaim{token->artifact, false, {}};
    }
    // Abandoned, or built against a different stamp: retry (and possibly
    // become the builder ourselves).
  }
}

PreparedCache::TableTryClaim PreparedCache::TryAcquireTable(
    const std::string& key, const TableStamp& stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  StaleArtifact stale;
  TableArtifactPtr hit = HitLocked(key, stamp, &stale);
  if (hit != nullptr) return TableTryClaim{std::move(hit), false, nullptr, {}};
  auto inf = inflight_.find(key);
  if (inf == inflight_.end()) {
    ++table_misses_;
    inflight_.emplace(key, std::make_shared<Inflight>());
    return TableTryClaim{nullptr, true, nullptr, std::move(stale)};
  }
  // Someone else is building: hand out their token WITHOUT blocking — the
  // claim-all caller publishes its own claims first and redeems the token
  // via WaitTable afterwards.
  return TableTryClaim{nullptr, false, inf->second, {}};
}

PreparedCache::TableClaim PreparedCache::WaitTable(
    const std::string& key, const TableStamp& stamp,
    const std::shared_ptr<void>& pending) {
  std::shared_ptr<Inflight> token = std::static_pointer_cast<Inflight>(pending);
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++inflight_waits_;
    token->cv.wait(lock, [&] { return token->done; });
    if (token->artifact != nullptr && token->stamp == stamp) {
      return TableClaim{token->artifact, false, {}};
    }
  }
  // Abandoned, or published under a different stamp: fall back to the
  // blocking acquire loop — we may become the builder ourselves.
  return AcquireTable(key, stamp);
}

void PreparedCache::PublishTable(const std::string& key,
                                 const TableStamp& stamp,
                                 TableArtifactPtr artifact, bool revalidated) {
  std::lock_guard<std::mutex> lock(mu_);
  if (revalidated) {
    // The claim counted a miss; it was served from the cache after all.
    --table_misses_;
    ++table_hits_;
    ++table_revalidations_;
  }
  auto inf = inflight_.find(key);
  if (inf != inflight_.end()) {
    inf->second->done = true;
    inf->second->artifact = artifact;
    inf->second->stamp = stamp;
    inf->second->cv.notify_all();
    inflight_.erase(inf);
  }
  InsertLocked(key, stamp, std::move(artifact));
}

void PreparedCache::AbandonTable(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto inf = inflight_.find(key);
  if (inf == inflight_.end()) return;
  inf->second->done = true;
  inf->second->cv.notify_all();
  inflight_.erase(inf);
}

// ---- warm-start join orders ------------------------------------------

void PreparedCache::RecordFinalOrder(const std::string& signature,
                                     std::vector<int> order) {
  if (order.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = orders_.find(signature);
  if (it != orders_.end()) {
    it->second = std::move(order);
    return;
  }
  // Bounded side table (FIFO): warm orders deliberately outlive entry
  // invalidation, so they get their own ring outside the byte budget.
  while (order_fifo_.size() >= kMaxWarmOrders) {
    orders_.erase(order_fifo_.back());
    order_fifo_.pop_back();
  }
  order_fifo_.push_front(signature);
  orders_.emplace(signature, std::move(order));
}

std::vector<int> PreparedCache::WarmOrder(const std::string& signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = orders_.find(signature);
  return it == orders_.end() ? std::vector<int>() : it->second;
}

PreparedCache::Stats PreparedCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.table_hits = table_hits_;
  s.table_misses = table_misses_;
  s.table_invalidations = table_invalidations_;
  s.table_revalidations = table_revalidations_;
  s.inflight_waits = inflight_waits_;
  s.admission_rejected = admission_rejected_;
  s.size_evictions = size_evictions_;
  s.table_entries = entries_.size();
  s.bytes_used = bytes_used_;
  s.max_bytes = max_bytes_;
  return s;
}

void PreparedCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_used_ = 0;
  orders_.clear();
  order_fifo_.clear();
  // In-flight builder claims are deliberately left untouched: their owners
  // still hold tokens and will Publish/Abandon into the emptied cache.
}

}  // namespace skinner
