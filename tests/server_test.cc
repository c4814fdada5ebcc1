#include "server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "server/tcp_server.h"

namespace skinner {
namespace {

/// Splits a response text into its lines (each was '\n'-terminated).
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

void SetupTinyDb(Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT, b STRING)").ok());
  ASSERT_TRUE(
      db->Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')").ok());
}

TEST(ServerProtocolTest, PingQuitAndUnknown) {
  Database db;
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());

  ServerResponse r = conn.value()->HandleLine("PING");
  EXPECT_EQ(r.text, "OK\n");
  EXPECT_FALSE(r.close);

  r = conn.value()->HandleLine("BOGUS stuff");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR UNSUPPORTED", 0), 0u);

  r = conn.value()->HandleLine("QUIT");
  EXPECT_EQ(r.text, "OK bye\n");
  EXPECT_TRUE(r.close);
}

TEST(ServerProtocolTest, QueryRowsAndErrors) {
  Database db;
  SetupTinyDb(&db);
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());

  ServerResponse r = conn.value()->HandleLine(
      "Q SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b");
  std::vector<std::string> lines = Lines(r.text);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "ROW x\t2");
  EXPECT_EQ(lines[1], "ROW y\t1");
  EXPECT_EQ(lines[2].rfind("OK rows=2 cost=", 0), 0u);

  r = conn.value()->HandleLine("Q SELECT FROM nonsense !!");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR PARSE", 0), 0u);

  r = conn.value()->HandleLine("Q SELECT * FROM missing");
  lines = Lines(r.text);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("ERR BIND", 0), 0u);

  r = conn.value()->HandleLine("Q");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR INVALID", 0), 0u);

  ServerStats stats = core.stats();
  EXPECT_EQ(stats.queries_ok, 1u);
  // The bare "Q" usage error never reaches the engine, so only the parse
  // and bind failures count as query errors.
  EXPECT_EQ(stats.queries_error, 2u);
}

TEST(ServerProtocolTest, DdlThenQuery) {
  Database db;
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());

  EXPECT_EQ(conn.value()->HandleLine("X CREATE TABLE u (v INT)").text, "OK\n");
  EXPECT_EQ(conn.value()->HandleLine("X INSERT INTO u VALUES (5), (6)").text,
            "OK\n");
  ServerResponse r =
      conn.value()->HandleLine("Q SELECT COUNT(*) FROM u");
  std::vector<std::string> lines = Lines(r.text);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ROW 2");
}

// A WHERE clause whose int64 arithmetic overflows (INT64_MIN / -1 traps in
// hardware division) evaluates to NULL: the server answers the query with
// a row and keeps serving.
TEST(ServerProtocolTest, Int64OverflowInWhereIsAnsweredNotFatal) {
  Database db;
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn.value()->HandleLine("X CREATE TABLE a (x INT)").text, "OK\n");
  EXPECT_EQ(conn.value()
                ->HandleLine("X INSERT INTO a VALUES (-9223372036854775807)")
                .text,
            "OK\n");
  for (const char* where : {"(x - 1) / -1 > 0", "x - 5 < 0", "-(x - 1) > 0",
                            "(x - 1) % -1 <> 0", "x * 2 < 0"}) {
    SCOPED_TRACE(where);
    std::vector<std::string> lines = Lines(conn.value()->HandleLine(
        std::string("Q SELECT COUNT(*) FROM a WHERE ") + where).text);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "ROW 0");
    EXPECT_EQ(lines[1].rfind("OK rows=1", 0), 0u);
  }
  std::vector<std::string> lines = Lines(
      conn.value()->HandleLine("Q SELECT COUNT(*) FROM a WHERE x < 0").text);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ROW 1");
  EXPECT_EQ(conn.value()->HandleLine("PING").text, "OK\n");
}

// DML over the wire, the CHECKPOINT verb, and the WAL counters that PR 7
// surfaces through ServerStats and STATS.
TEST(ServerProtocolTest, MutationCheckpointAndWalStats) {
  const std::string dir = ::testing::TempDir() + "server_wal_" +
                          std::to_string(static_cast<long>(::getpid()));
  auto cleanup = [&] {
    std::remove((dir + "/wal.log").c_str());
    std::remove((dir + "/checkpoint.skdb").c_str());
    ::rmdir(dir.c_str());
  };
  cleanup();
  auto opened = Database::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = opened.MoveValue();
  ServerCore core(db.get());
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());

  EXPECT_EQ(conn.value()->HandleLine("X CREATE TABLE w (a INT, b STRING)").text,
            "OK\n");
  EXPECT_EQ(conn.value()
                ->HandleLine("X INSERT INTO w VALUES (1, 'x'), (2, 'y'), "
                             "(3, 'x')")
                .text,
            "OK\n");
  EXPECT_EQ(conn.value()->HandleLine("X UPDATE w SET b = 'z' WHERE a = 1").text,
            "OK\n");
  EXPECT_EQ(conn.value()->HandleLine("X DELETE FROM w WHERE a = 3").text,
            "OK\n");
  ServerResponse r = conn.value()->HandleLine("Q SELECT COUNT(*) FROM w");
  ASSERT_EQ(Lines(r.text).size(), 2u);
  EXPECT_EQ(Lines(r.text)[0], "ROW 2");

  ServerStats stats = core.stats();
  EXPECT_EQ(stats.wal_appends, 4u);  // CREATE + INSERT + UPDATE + DELETE
  EXPECT_GT(stats.wal_bytes, 0u);
  EXPECT_EQ(stats.recovery_replayed_records, 0u);
  EXPECT_EQ(stats.checkpoints, 0u);

  EXPECT_EQ(conn.value()->HandleLine("CHECKPOINT").text, "OK checkpoints=1\n");
  stats = core.stats();
  EXPECT_EQ(stats.checkpoints, 1u);

  // The same four counters must appear as STAT lines, with matching values.
  r = conn.value()->HandleLine("STATS");
  bool saw_appends = false;
  bool saw_bytes = false;
  bool saw_replayed = false;
  bool saw_checkpoints = false;
  for (const std::string& line : Lines(r.text)) {
    if (line == "STAT wal_appends=" + std::to_string(stats.wal_appends)) {
      saw_appends = true;
    }
    if (line == "STAT wal_bytes=" + std::to_string(stats.wal_bytes)) {
      saw_bytes = true;
    }
    if (line == "STAT recovery_replayed_records=0") saw_replayed = true;
    if (line == "STAT checkpoints=1") saw_checkpoints = true;
  }
  EXPECT_TRUE(saw_appends);
  EXPECT_TRUE(saw_bytes);
  EXPECT_TRUE(saw_replayed);
  EXPECT_TRUE(saw_checkpoints);
  cleanup();
}

// An in-memory server still accepts DML and CHECKPOINT; the WAL counters
// just stay zero (checkpoint only compacts).
TEST(ServerProtocolTest, InMemoryWalStatsAreZero) {
  Database db;
  SetupTinyDb(&db);
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn.value()->HandleLine("X DELETE FROM t WHERE a = 2").text,
            "OK\n");
  ServerResponse r = conn.value()->HandleLine("CHECKPOINT");
  EXPECT_EQ(r.text, "OK checkpoints=1\n");
  ServerStats stats = core.stats();
  EXPECT_EQ(stats.wal_appends, 0u);
  EXPECT_EQ(stats.wal_bytes, 0u);
  EXPECT_EQ(stats.checkpoints, 1u);
}

TEST(ServerProtocolTest, PrepareAndExecute) {
  Database db;
  SetupTinyDb(&db);
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());

  ServerResponse r = conn.value()->HandleLine(
      "P stmt SELECT a FROM t WHERE b = ? ORDER BY a");
  EXPECT_EQ(r.text, "OK params=1\n");

  r = conn.value()->HandleLine("E stmt 'x'");
  std::vector<std::string> lines = Lines(r.text);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "ROW 1");
  EXPECT_EQ(lines[1], "ROW 3");

  r = conn.value()->HandleLine("E nosuch 'x'");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR NOT_FOUND", 0), 0u);

  r = conn.value()->HandleLine("E stmt 'x' 'extra'");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR", 0), 0u);

  r = conn.value()->HandleLine("P bad-name SELECT 1");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR INVALID", 0), 0u);
}

TEST(ServerProtocolTest, StatsSurface) {
  Database db;
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());
  ServerResponse r = conn.value()->HandleLine("STATS");
  std::vector<std::string> lines = Lines(r.text);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.back(), "OK");
  bool saw_sched = false;
  bool saw_cache = false;
  for (const std::string& line : lines) {
    if (line != "OK") {
      EXPECT_EQ(line.rfind("STAT ", 0), 0u) << line;
    }
    if (line.rfind("STAT sched_workers=", 0) == 0) saw_sched = true;
    if (line.rfind("STAT cache_max_bytes=", 0) == 0) saw_cache = true;
  }
  EXPECT_TRUE(saw_sched);
  EXPECT_TRUE(saw_cache);
}

// Per-session latency accounting: admitted Q/E executions land in the
// session's log2 histogram and STATS reports count/p50/p99 per session.
TEST(ServerProtocolTest, StatsReportSessionLatency) {
  Database db;
  SetupTinyDb(&db);
  ServerCore core(&db);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());
  const uint64_t sid = conn.value()->session_id();

  for (int i = 0; i < 5; ++i) {
    ServerResponse q = conn.value()->HandleLine("Q SELECT COUNT(*) FROM t");
    EXPECT_EQ(Lines(q.text).back().rfind("OK ", 0), 0u);
  }

  ServerStats stats = core.stats();
  bool found = false;
  for (const auto& [id, lat] : stats.session_latency) {
    if (id != sid) continue;
    found = true;
    EXPECT_EQ(lat.count, 5u);
    EXPECT_GT(lat.p50_ms, 0.0);  // bucket upper bounds are never 0
    EXPECT_LE(lat.p50_ms, lat.p99_ms);
  }
  EXPECT_TRUE(found);

  const std::string prefix = "STAT session_" + std::to_string(sid) + "_";
  ServerResponse r = conn.value()->HandleLine("STATS");
  bool saw_queries = false;
  bool saw_p50 = false;
  bool saw_p99 = false;
  for (const std::string& line : Lines(r.text)) {
    if (line == prefix + "queries=5") saw_queries = true;
    if (line.rfind(prefix + "p50_ms=", 0) == 0) saw_p50 = true;
    if (line.rfind(prefix + "p99_ms=", 0) == 0) saw_p99 = true;
  }
  EXPECT_TRUE(saw_queries);
  EXPECT_TRUE(saw_p50);
  EXPECT_TRUE(saw_p99);
}

TEST(ServerLiteralTest, ParsesIntsDoublesStringsNull) {
  auto vals = ParseLiteralList("1 -2 3.5 NULL 'it''s' 'x y'");
  ASSERT_TRUE(vals.ok());
  ASSERT_EQ(vals.value().size(), 6u);
  EXPECT_EQ(vals.value()[0].AsInt(), 1);
  EXPECT_EQ(vals.value()[1].AsInt(), -2);
  EXPECT_DOUBLE_EQ(vals.value()[2].AsDouble(), 3.5);
  EXPECT_TRUE(vals.value()[3].is_null());
  EXPECT_EQ(vals.value()[4].AsString(), "it's");
  EXPECT_EQ(vals.value()[5].AsString(), "x y");

  EXPECT_FALSE(ParseLiteralList("'unterminated").ok());
  EXPECT_FALSE(ParseLiteralList("12abc").ok());
  EXPECT_TRUE(ParseLiteralList("").ok());

  // Out-of-range numbers are errors naming the token, never clamped.
  for (const char* tok : {"99999999999999999999", "-9223372036854775809",
                          "1e999", "-1e999"}) {
    auto r = ParseLiteralList(std::string("1 ") + tok);
    ASSERT_FALSE(r.ok()) << tok;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << tok;
    EXPECT_NE(r.status().message().find(tok), std::string::npos)
        << r.status().message();
  }
  auto bounds = ParseLiteralList("-9223372036854775808 9223372036854775807 1e-999");
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds.value()[0].AsInt(), INT64_MIN);
  EXPECT_EQ(bounds.value()[1].AsInt(), INT64_MAX);
  EXPECT_EQ(bounds.value()[2].AsDouble(), 0.0);
}

TEST(ServerLiteralTest, EscapeFieldKeepsRowsOneLine) {
  EXPECT_EQ(EscapeField("plain"), "plain");
  EXPECT_EQ(EscapeField("a\tb"), "a\\tb");
  EXPECT_EQ(EscapeField("a\nb"), "a\\nb");
  EXPECT_EQ(EscapeField("a\\b"), "a\\\\b");
}

// K concurrent sessions running the same fixed-seed query must each get
// rows bit-identical to a single direct client.
TEST(ServerConcurrencyTest, KSessionResultsBitIdentical) {
  Database db;
  SetupTinyDb(&db);
  const std::string sql =
      "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY b";
  std::string reference;
  {
    auto out = db.Query(sql);
    ASSERT_TRUE(out.ok());
    std::ostringstream os;
    for (const auto& row : out.value().result.rows) {
      for (size_t j = 0; j < row.size(); ++j) {
        if (j > 0) os << '\t';
        os << row[j].ToString();
      }
      os << '\n';
    }
    reference = os.str();
  }

  ServerCore core(&db);
  constexpr int kSessions = 6;
  std::vector<std::unique_ptr<ServerConnection>> conns;
  for (int i = 0; i < kSessions; ++i) {
    auto c = core.Connect();
    ASSERT_TRUE(c.ok());
    conns.push_back(c.MoveValue());
  }
  std::vector<std::string> rows(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      ServerResponse r = conns[static_cast<size_t>(i)]->HandleLine("Q " + sql);
      std::ostringstream os;
      for (const std::string& line : Lines(r.text)) {
        if (line.rfind("ROW ", 0) == 0) os << line.substr(4) << '\n';
      }
      rows[static_cast<size_t>(i)] = os.str();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)], reference) << "session " << i;
  }
}

TEST(ServerQuotaTest, PreparedStatementQuota) {
  Database db;
  SetupTinyDb(&db);
  ServerOptions opts;
  opts.quota.max_prepared_statements = 2;
  ServerCore core(&db, opts);
  auto conn = core.Connect();
  ASSERT_TRUE(conn.ok());

  EXPECT_EQ(conn.value()
                ->HandleLine("P s1 SELECT a FROM t WHERE b = ?")
                .text.rfind("OK", 0),
            0u);
  EXPECT_EQ(conn.value()
                ->HandleLine("P s2 SELECT COUNT(*) FROM t WHERE a = ?")
                .text.rfind("OK", 0),
            0u);
  ServerResponse r =
      conn.value()->HandleLine("P s3 SELECT b FROM t WHERE a = ?");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR QUOTA", 0), 0u);
  // Re-preparing an existing name replaces it and doesn't count anew.
  EXPECT_EQ(conn.value()
                ->HandleLine("P s1 SELECT a FROM t WHERE b = ?")
                .text.rfind("OK", 0),
            0u);
}

// Every connection publishes into the one shared PreparedCache: after a
// write invalidates an artifact, whichever connection executes next
// rebuilds and publishes it, and every other connection hits it.
TEST(ServerCacheTest, ConnectionsShareRepublishedArtifacts) {
  Database db;
  SetupTinyDb(&db);
  ServerOptions opts;
  opts.defaults.use_prepared_cache = true;
  ServerCore core(&db, opts);
  auto a = core.Connect();
  auto b = core.Connect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (auto* conn : {&a, &b}) {
    ASSERT_EQ(conn->value()
                  ->HandleLine("P s SELECT a FROM t WHERE b = ? ORDER BY a")
                  .text.rfind("OK", 0),
              0u);
  }
  auto rebuilt = [](const std::unique_ptr<ServerConnection>& conn) {
    return conn->session()->stats().tables_reprepared;
  };

  std::vector<std::string> lines = Lines(a.value()->HandleLine("E s 'x'").text);
  ASSERT_EQ(lines.size(), 3u);  // rows 1 and 3, then OK
  EXPECT_EQ(rebuilt(a.value()), 1u);

  // Row 2 joins the filtered set: the artifact must be rebuilt.
  ASSERT_EQ(a.value()->HandleLine("X UPDATE t SET b = 'x' WHERE a = 2").text,
            "OK\n");
  lines = Lines(b.value()->HandleLine("E s 'x'").text);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "ROW 1");
  EXPECT_EQ(lines[1], "ROW 2");
  EXPECT_EQ(lines[2], "ROW 3");
  EXPECT_EQ(rebuilt(b.value()), 1u);

  // A hits what B published.
  lines = Lines(a.value()->HandleLine("E s 'x'").text);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[1], "ROW 2");
  EXPECT_EQ(rebuilt(a.value()), 1u);
  EXPECT_EQ(core.stats().cache_publish_throttled, 0u);

  // STATS reports the shared cache, not a per-connection share.
  const PreparedCache::Stats cs = db.prepared_cache()->stats();
  bool saw_hits = false;
  for (const std::string& line : Lines(a.value()->HandleLine("STATS").text)) {
    if (line == "STAT cache_table_hits=" + std::to_string(cs.table_hits)) {
      saw_hits = true;
    }
    EXPECT_NE(line.rfind("STAT cache_publish_throttled=", 0), 0u);
  }
  EXPECT_TRUE(saw_hits);
  EXPECT_EQ(cs.table_hits, 1u);    // A's last execution
  EXPECT_EQ(cs.table_misses, 2u);  // A's first, B's after the write
  EXPECT_EQ(cs.table_invalidations, 1u);
  EXPECT_EQ(cs.table_revalidations, 0u);  // the write changed membership
}

TEST(ServerAdmissionTest, MaxSessionsSheds) {
  Database db;
  ServerOptions opts;
  opts.max_sessions = 1;
  ServerCore core(&db, opts);

  auto first = core.Connect();
  ASSERT_TRUE(first.ok());
  auto second = core.Connect();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(core.stats().connections_shed, 1u);

  first.MoveValue().reset();  // slot released
  auto third = core.Connect();
  EXPECT_TRUE(third.ok());
}

TEST(ServerShutdownTest, ShutdownDrainsThenRejects) {
  Database db;
  SetupTinyDb(&db);
  ServerCore core(&db);
  auto a = core.Connect();
  auto b = core.Connect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  ServerResponse r = a.value()->HandleLine("SHUTDOWN");
  EXPECT_TRUE(r.shutdown);
  EXPECT_TRUE(r.close);
  core.Shutdown();

  r = b.value()->HandleLine("Q SELECT COUNT(*) FROM t");
  EXPECT_EQ(Lines(r.text)[0].rfind("ERR SHUTDOWN", 0), 0u);
  auto c = core.Connect();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kShuttingDown);
}

// DDL racing concurrent queries must yield clean per-query Status errors
// (stale statement / unknown table), never a crash or torn read. Run under
// TSan in CI.
TEST(ServerConcurrencyTest, DdlInterleavedWithQueriesIsClean) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE r (k INT, v INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO r VALUES (1, 10), (2, 20)").ok());
  ServerCore core(&db);
  auto ddl_conn = core.Connect();
  auto query_conn = core.Connect();
  ASSERT_TRUE(ddl_conn.ok());
  ASSERT_TRUE(query_conn.ok());

  std::atomic<bool> stop{false};
  std::thread ddl([&] {
    for (int i = 0; i < 25 && !stop.load(); ++i) {
      ddl_conn.value()->HandleLine("X DROP TABLE r");
      ddl_conn.value()->HandleLine("X CREATE TABLE r (k INT, v INT)");
      ddl_conn.value()->HandleLine("X INSERT INTO r VALUES (1, 10), (2, 20)");
    }
  });
  std::thread query([&] {
    for (int i = 0; i < 50; ++i) {
      ServerResponse r = query_conn.value()->HandleLine(
          "Q SELECT COUNT(*) FROM r WHERE v > 5");
      for (const std::string& line : Lines(r.text)) {
        const bool clean = line.rfind("ROW", 0) == 0 ||
                           line.rfind("OK", 0) == 0 ||
                           line.rfind("ERR", 0) == 0;
        EXPECT_TRUE(clean) << line;
      }
    }
    stop.store(true);
  });
  ddl.join();
  query.join();
}

/// A blocking loopback client of TcpServer.
class LoopbackClient {
 public:
  explicit LoopbackClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
    // A server that never answers fails the test instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~LoopbackClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until a terminal OK/ERR line or end of stream; returns
  /// everything read. `*eof` reports whether the server closed the socket.
  std::string ReadResponse(bool* eof) {
    std::string text;
    *eof = false;
    char chunk[4096];
    while (true) {
      if (!text.empty() && text.back() == '\n') {
        const std::string last = Lines(text).back();
        if (last.rfind("OK", 0) == 0 || last.rfind("ERR", 0) == 0) {
          return text;
        }
      }
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        *eof = true;
        return text;
      }
      text.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True once the server has closed the connection (read returns 0).
  bool ServerClosed() {
    char c;
    return ::read(fd_, &c, 1) == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// The transport bounds the request line: one client sending an oversized
// line gets ERR INVALID and a closed socket, while other clients keep
// being served.
TEST(TcpServerTest, OversizedLineIsRejectedAndOthersStillServed) {
  Database db;
  SetupTinyDb(&db);
  ServerCore core(&db);
  TcpServer tcp(&core);
  ASSERT_TRUE(tcp.Start(0).ok());

  LoopbackClient good(tcp.port());
  ASSERT_TRUE(good.connected());
  {
    LoopbackClient bad(tcp.port());
    ASSERT_TRUE(bad.connected());
    // Exactly one byte over the limit and no newline: the server reads all
    // of it before rejecting, so it closes with nothing left unread.
    ASSERT_TRUE(bad.Send("Q " + std::string(TcpServer::kMaxLineBytes - 1,
                                            'x')));
    bool eof = false;
    const std::string text = bad.ReadResponse(&eof);
    EXPECT_EQ(text, "ERR INVALID line exceeds " +
                        std::to_string(TcpServer::kMaxLineBytes) +
                        " bytes\n");
    EXPECT_FALSE(eof);
    EXPECT_TRUE(bad.ServerClosed());
  }

  ASSERT_TRUE(good.Send("Q SELECT COUNT(*) FROM t\n"));
  bool eof = false;
  const std::vector<std::string> lines = Lines(good.ReadResponse(&eof));
  EXPECT_FALSE(eof);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ROW 3");
  EXPECT_EQ(lines[1].rfind("OK rows=1", 0), 0u);
  tcp.Shutdown();
}

}  // namespace
}  // namespace skinner
