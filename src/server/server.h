#ifndef SKINNER_SERVER_SERVER_H_
#define SKINNER_SERVER_SERVER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "api/session.h"
#include "common/scheduler.h"

namespace skinner {

/// Per-connection resource quotas (see ServerOptions). A connection past a
/// quota gets a clean `ERR QUOTA` (statements) or silently stops publishing
/// into the shared PreparedCache (cache byte share) — it never degrades
/// other sessions.
struct SessionQuota {
  /// Prepared statements a connection may hold at once (P command).
  int max_prepared_statements = 64;
  /// Bytes of pre-processing artifacts one connection may publish into the
  /// shared PreparedCache before its executions turn cache_read_only
  /// (reads still served; its repeated work just stays unshared).
  uint64_t cache_bytes_share = 16ull << 20;
};

struct ServerOptions {
  /// Concurrent client connections; excess Connects are shed with
  /// Status::Overloaded before a Session is created.
  int max_sessions = 64;
  SessionQuota quota;
  /// Base ExecOptions of every connection's session (engine, budgets...).
  ExecOptions defaults;
};

/// Aggregate serving counters (STATS command / bench_server). Scheduler
/// admission counters live in `scheduler` (see Scheduler::Stats).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;  // max_sessions exceeded
  int connections_active = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_error = 0;   // parse/bind/execution errors
  uint64_t queries_shed = 0;    // scheduler admission: overload/quota/drain
  uint64_t statements_prepared = 0;
  /// Executions forced cache_read_only by an exhausted byte share.
  uint64_t cache_publish_throttled = 0;
  /// Durability counters mirrored from Database::wal_stats() (all zero for
  /// an in-memory database).
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t recovery_replayed_records = 0;
  uint64_t checkpoints = 0;
  /// Per-session wall-clock latency of admitted Q/E executions, estimated
  /// from log2-bucketed histograms (each percentile reports its bucket's
  /// upper bound, so estimates are conservative and the accounting is O(1)
  /// per query and O(buckets) per STATS call).
  struct SessionLatency {
    uint64_t count = 0;  // admitted executions measured
    double p50_ms = 0;
    double p99_ms = 0;
  };
  std::vector<std::pair<uint64_t, SessionLatency>> session_latency;  // by id
  Scheduler::Stats scheduler;
};

/// One line of protocol handled; `text` holds the complete response
/// (every line '\n'-terminated, the last line always `OK ...` or
/// `ERR <TOKEN> ...`).
struct ServerResponse {
  std::string text;
  bool close = false;     // QUIT: the transport should close after writing
  bool shutdown = false;  // SHUTDOWN: the transport should stop the server
};

class ServerConnection;

/// The transport-agnostic core of skinner_serve: multiplexes N client
/// connections onto one shared Database through its one global Scheduler.
/// Each Connect() yields a ServerConnection owning a Session (independent
/// seed stream, stats roll-up) plus its prepared-statement namespace and
/// cache byte-share accounting; every query a connection runs is submitted
/// to the scheduler under the session's id, so admission control
/// (OVERLOADED), per-session fairness (weighted FIFO, inflight caps) and
/// graceful drain apply uniformly whatever the transport.
///
/// Protocol (line-oriented; see HandleLine):
///   Q <select sql>          -> ROW <v1>\t<v2>... lines, then OK rows=N cost=C
///   X <ddl/dml sql>         -> OK (CREATE/INSERT/DROP/UPDATE/DELETE; DML
///                              serializes with other writers only, is
///                              WAL-logged on a durable database, and is
///                              visible to queries that start after the OK)
///   P <name> <sql with ?>   -> OK params=K (SELECT, UPDATE or DELETE)
///   E <name> <literals>     -> ROW lines, then OK rows=N cost=C
///   CHECKPOINT              -> OK checkpoints=N (compact + snapshot + WAL reset)
///   STATS                   -> STAT key=value lines, then OK
///   PING                    -> OK
///   QUIT                    -> OK bye (connection closes)
///   SHUTDOWN                -> OK draining (server drains, then exits)
/// Errors: ERR <TOKEN> <message> — TOKEN is the stable Status wire code
/// (common/status.h), e.g. ERR PARSE, ERR OVERLOADED, ERR QUOTA.
///
/// Thread-safety: ServerCore methods are thread-safe; each
/// ServerConnection must be driven by one thread at a time (the usual
/// one-thread-per-connection transport), while distinct connections run
/// fully concurrently.
class ServerCore {
 public:
  /// `db` must outlive the core. The scheduler used for admission is
  /// db->scheduler() — construct the Database with SchedulerOptions to
  /// bound its queue (see Database(const SchedulerOptions&)).
  explicit ServerCore(Database* db, ServerOptions opts = {});
  ~ServerCore();
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Admits one client: sheds with Overloaded past max_sessions and with
  /// ShuttingDown after Shutdown() began. The connection must not outlive
  /// the core.
  Result<std::unique_ptr<ServerConnection>> Connect();

  /// Graceful shutdown: stop admitting connections and queries, drain the
  /// scheduler (every admitted query finishes), then return. Idempotent.
  /// Must not be called from inside a query (i.e. from a pool worker).
  void Shutdown();

  bool shutting_down() const;
  ServerStats stats() const;
  Database* database() { return db_; }
  const ServerOptions& options() const { return opts_; }

 private:
  friend class ServerConnection;

  /// log2 microsecond buckets: bucket b counts latencies in [2^b, 2^{b+1})
  /// microseconds. 40 buckets cover up to ~2^41 us (~25 days) — effectively
  /// unbounded for a query.
  static constexpr size_t kLatencyBuckets = 40;
  struct LatencyHist {
    uint64_t count = 0;
    std::array<uint64_t, kLatencyBuckets> buckets{};
  };
  /// Folds one admitted execution's wall time into its session's histogram.
  void RecordLatency(uint64_t session_id, uint64_t micros);

  Database* const db_;
  const ServerOptions opts_;

  mutable std::mutex mu_;
  bool shutting_down_ = false;
  int active_ = 0;
  uint64_t accepted_ = 0;
  uint64_t conn_shed_ = 0;
  uint64_t queries_ok_ = 0;
  uint64_t queries_error_ = 0;
  uint64_t queries_shed_ = 0;
  uint64_t statements_prepared_ = 0;
  uint64_t cache_publish_throttled_ = 0;
  std::map<uint64_t, LatencyHist> latency_;  // by session id; guarded by mu_
};

/// One client connection: a Session plus protocol state. Created by
/// ServerCore::Connect(); destroying it releases the slot.
class ServerConnection {
 public:
  ~ServerConnection();
  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  /// Handles one protocol line (without its trailing newline) and returns
  /// the full response to write back.
  ServerResponse HandleLine(const std::string& line);

  uint64_t session_id() const { return session_->id(); }
  Session* session() { return session_.get(); }
  /// Cache bytes this connection has published so far (quota accounting).
  uint64_t cache_bytes_used() const { return cache_bytes_used_; }

 private:
  friend class ServerCore;
  ServerConnection(ServerCore* core, std::unique_ptr<Session> session);

  /// Runs one SELECT/statement execution through the scheduler under this
  /// connection's session id and formats ROW + OK lines.
  ServerResponse RunQuery(const std::string& sql);
  ServerResponse RunPrepare(const std::string& rest);
  ServerResponse RunExecute(const std::string& rest);
  ServerResponse RunStats();

  /// Session defaults with the cache byte-share quota applied.
  ExecOptions EffectiveOptions();

  ServerCore* const core_;
  std::unique_ptr<Session> session_;
  std::map<std::string, std::unique_ptr<PreparedStatement>> statements_;
  uint64_t cache_bytes_used_ = 0;
};

/// Parses a space-separated literal list of the E command: integers,
/// doubles, NULL, and 'single-quoted strings' with '' as the escaped quote.
Result<std::vector<Value>> ParseLiteralList(const std::string& text);

/// Escapes one result value for a ROW line: backslash, tab and newline
/// become \\, \t and \n so rows stay one line with tab-separated fields.
std::string EscapeField(const std::string& field);

}  // namespace skinner

#endif  // SKINNER_SERVER_SERVER_H_
