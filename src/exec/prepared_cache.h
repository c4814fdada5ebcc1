#ifndef SKINNER_EXEC_PREPARED_CACHE_H_
#define SKINNER_EXEC_PREPARED_CACHE_H_

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/prepared_query.h"

namespace skinner {

/// Identity + data-version stamp of one table at prepare time. A cached
/// artifact may serve an execution only if its table has the same id (same
/// CREATE, not a same-name re-creation) and the same data version (no DML
/// since the artifact was built).
struct TableStamp {
  uint64_t table_id = 0;
  uint64_t data_version = 0;

  bool operator==(const TableStamp& o) const {
    return table_id == o.table_id && data_version == o.data_version;
  }
  bool operator!=(const TableStamp& o) const { return !(*this == o); }
};

/// Canonical signature of a bound SELECT: an unambiguous serialization of
/// the FROM list (table names), every bound expression (by table/column
/// index, operator codes and literal values — string literals are
/// length-prefixed, doubles serialized by bit pattern), DISTINCT, GROUP
/// BY, ORDER BY and LIMIT. Template-identical queries — same normalized
/// structure regardless of the original SQL text — map to the same
/// signature.
///
/// `?` parameters serialize as typed slots (ordinal + inferred type), NOT
/// as values: the signature of a parameterized template is therefore
/// parameter-abstracted, and every execution of the template — whatever
/// constants it binds — shares one signature. Warm-start join orders are
/// keyed by it, which is what makes learned orders transfer across
/// parameter values (paper 4.2/4.5: order quality is a property of the
/// join template, not of the constants).
std::string ComputeQuerySignature(const BoundQuery& query);

/// The key of ONE table's pre-processing artifact. Pre-processing is per
/// table (paper 4.5, Figure 2): a table's artifact depends only on the
/// table, its own unary predicates and the columns it is indexed on, so
/// the key is exactly
///   - the table id,
///   - `unary_preds` in evaluation order, column references normalized to
///     the table (parameters must already be substituted),
///   - the sorted equi-join `index_cols` and the `build_hash_indexes`
///     variant (no columns are recorded when no index is built).
/// Two queries that filter a table the same way share one artifact,
/// whatever else they join with.
std::string TableArtifactKey(const Table& table,
                             const std::vector<const Expr*>& unary_preds,
                             const std::vector<int>& index_cols,
                             bool build_hash_indexes);

/// Cross-query cache of per-table pre-processing artifacts (paper Figure 2
/// / 4.5: per-table filtering and hash-index builds), keyed by
/// TableArtifactKey and validated by the table's TableStamp.
///
/// A key match with a stale stamp (DML since the build) evicts the entry
/// and counts as an invalidation; the builder claim it turns into carries
/// the evicted artifact along, so the builder can revalidate it against
/// the table's change log instead of rebuilding (PreparedQuery::Prepare).
/// Entries for dropped tables become unreachable (a re-created table has
/// a new id, hence new keys) and age out of the LRU ring.
///
/// Admission/eviction is size-aware: every entry is charged its artifact
/// bytes (TableArtifact::bytes plus a fixed per-entry overhead), and the
/// least recently used entries are evicted until the total fits
/// `max_bytes`. An entry larger than the whole budget is not admitted at
/// all (counted in stats().admission_rejected); the caller still keeps
/// its artifact.
///
/// In-flight build coordination: a miss hands exactly one caller per key
/// a builder claim; every other concurrent caller waits until the builder
/// publishes (getting the freshly built artifact even if an eviction races
/// in between) or abandons (waking waiters to build for themselves). This
/// removes the duplicated pre-processing a lookup/insert race allows.
///
/// The cache additionally remembers, per query signature, the last join
/// order Skinner-C converged to, surviving data invalidation: the order
/// quality depends on the data distribution, which DML rarely changes
/// drastically, so a re-prepared template can still warm-start its UCT
/// tree from it (learning itself stays per-execution, consistent with the
/// paper).
///
/// All methods are thread-safe; returned artifacts stay valid after
/// eviction (shared ownership).
class PreparedCache {
 public:
  static constexpr size_t kDefaultMaxBytes = size_t{64} << 20;  // 64 MiB
  /// Charged per entry on top of the artifact bytes (map/list
  /// bookkeeping); also what makes zero-byte entries evictable.
  static constexpr size_t kEntryOverheadBytes = 256;

  using TableArtifactPtr = std::shared_ptr<const TableArtifact>;

  explicit PreparedCache(size_t max_bytes = kDefaultMaxBytes);
  PreparedCache(const PreparedCache&) = delete;
  PreparedCache& operator=(const PreparedCache&) = delete;

  /// A builder claim's evicted artifact of an older data version of the
  /// same table (null when there is none): exact under the claim's stamp
  /// too if no row change since `data_version` touched it.
  struct StaleArtifact {
    TableArtifactPtr artifact;
    uint64_t data_version = 0;
  };
  struct TableClaim {
    TableArtifactPtr artifact;
    bool builder = false;  // true: the caller must PublishTable/AbandonTable
    StaleArtifact stale;   // builder only
  };
  /// Returns a ready artifact, or makes the first caller to miss the
  /// builder (builder=true), who MUST later PublishTable (success) or
  /// AbandonTable (failure); concurrent callers block until then. A caller
  /// holding builder claims on several keys at once MUST follow the
  /// claim-all protocol (below) instead.
  TableClaim AcquireTable(const std::string& key, const TableStamp& stamp);
  /// Inserts the artifact (replacing any entry under `key`) and hands it
  /// to every waiter of the key's in-flight build. `revalidated`: the
  /// artifact is the claim's stale one, proven exact under `stamp` — the
  /// claim counts as a hit and a revalidation instead of a miss.
  void PublishTable(const std::string& key, const TableStamp& stamp,
                    TableArtifactPtr artifact, bool revalidated = false);
  /// Releases the builder claim without a result; one waiter (or the next
  /// caller) becomes the builder instead.
  void AbandonTable(const std::string& key);

  /// Claim-all protocol for building SEVERAL tables' artifacts
  /// concurrently (PreparedQuery::Prepare over an m-table join):
  ///
  ///   1. TryAcquireTable every key up front — never blocks; each call
  ///      yields a ready artifact, a builder claim, or another caller's
  ///      in-flight token.
  ///   2. Build and PublishTable (or AbandonTable) EVERY owned claim.
  ///   3. Only then WaitTable on the tokens of step 1.
  ///
  /// Deadlock-freedom: a claim holder never blocks while holding an
  /// unpublished claim, so the wait-for graph between builders has no
  /// cycle by construction. (Blocking sorted acquisition would NOT work
  /// here: two builders each holding one claim of the other's set would
  /// wait forever, because neither publishes anything until it holds all
  /// its claims.)
  struct TableTryClaim {
    TableArtifactPtr artifact;  // set on an immediate hit
    bool builder = false;       // true: the caller must Publish/Abandon
    /// Another caller's in-flight build token (artifact and builder both
    /// unset); redeem with WaitTable after publishing every owned claim.
    std::shared_ptr<void> pending;
    StaleArtifact stale;  // builder only
  };
  TableTryClaim TryAcquireTable(const std::string& key,
                                const TableStamp& stamp);
  /// Blocks on `pending` (from TryAcquireTable) until its builder
  /// publishes or abandons. Returns the published artifact, or — after an
  /// abandon, or a publish under a different stamp — falls back to the
  /// blocking AcquireTable loop, so the result may be builder=true and the
  /// caller must then build-and-publish (or abandon) itself.
  TableClaim WaitTable(const std::string& key, const TableStamp& stamp,
                       const std::shared_ptr<void>& pending);

  // ---- warm-start join orders ----------------------------------------

  /// Records the final join order an execution of `signature` converged to
  /// (Skinner-C's UCT exploitation path). Empty orders are ignored.
  void RecordFinalOrder(const std::string& signature, std::vector<int> order);

  /// The last recorded final order for `signature` (empty if none).
  std::vector<int> WarmOrder(const std::string& signature) const;

  struct Stats {
    /// Always 0: the whole-query bundle entries these counted are gone.
    /// Kept declared because the end-to-end benchmark sums them with
    /// table_hits/table_misses; a benchmark-scoped change drops them.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t table_hits = 0;
    uint64_t table_misses = 0;
    uint64_t table_invalidations = 0;  // key hits discarded on stale stamps
    /// Stale artifacts proven exact under the new stamp and republished
    /// instead of rebuilt (counted in table_hits, not table_misses).
    uint64_t table_revalidations = 0;
    /// Lookups served by blocking on another caller's in-flight build
    /// instead of re-preparing.
    uint64_t inflight_waits = 0;
    /// Entries larger than the whole byte budget, never admitted.
    uint64_t admission_rejected = 0;
    /// Entries evicted to fit the byte budget (not replacements or
    /// stamp invalidations).
    uint64_t size_evictions = 0;
    size_t table_entries = 0;  // resident artifacts
    size_t bytes_used = 0;     // charged bytes of the resident artifacts
    size_t max_bytes = 0;      // the configured budget
  };
  Stats stats() const;

  /// Drops all entries and warm orders (stats are kept; in-flight builder
  /// claims stay valid and publish into the emptied cache).
  void Clear();

 private:
  using LruList = std::list<std::string>;

  struct Entry {
    TableStamp stamp;
    TableArtifactPtr artifact;
    size_t bytes = 0;
    LruList::iterator lru_it;
  };
  /// One in-flight build: waiters sleep on `cv` until the builder flips
  /// `done` (Publish carries the payload so an eviction race cannot strand
  /// the waiters; Abandon leaves it empty).
  struct Inflight {
    bool done = false;
    TableArtifactPtr artifact;
    TableStamp stamp;
    std::condition_variable cv;
  };

  /// Serves a fresh hit (LRU bump) or evicts a stale entry (handing it to
  /// `stale` when it is older than `stamp`); null on miss.
  TableArtifactPtr HitLocked(const std::string& key, const TableStamp& stamp,
                             StaleArtifact* stale = nullptr);
  void EvictLocked(const std::string& key);
  /// Evicts LRU entries until `bytes` more fit the budget; returns false
  /// (admission rejected) if they never can.
  bool ReserveLocked(size_t bytes);
  void InsertLocked(const std::string& key, const TableStamp& stamp,
                    TableArtifactPtr artifact);

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  LruList lru_;  // front = most recently used
  size_t bytes_used_ = 0;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  std::unordered_map<std::string, std::vector<int>> orders_;
  std::list<std::string> order_fifo_;
  uint64_t table_hits_ = 0;
  uint64_t table_misses_ = 0;
  uint64_t table_invalidations_ = 0;
  uint64_t table_revalidations_ = 0;
  uint64_t inflight_waits_ = 0;
  uint64_t admission_rejected_ = 0;
  uint64_t size_evictions_ = 0;
};

}  // namespace skinner

#endif  // SKINNER_EXEC_PREPARED_CACHE_H_
