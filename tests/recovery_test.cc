#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "api/session.h"
#include "txn/wal.h"

namespace skinner {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

/// Durable-database fixture: a fresh storage directory per test, cleaned
/// up afterwards. Open()/Reopen() model process restarts: destroying the
/// Database and opening the directory again replays snapshot + WAL exactly
/// like a new process would after a kill.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "skinner_recovery_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    Cleanup();
  }
  void TearDown() override { Cleanup(); }

  void Cleanup() {
    std::remove((dir_ + "/wal.log").c_str());
    std::remove((dir_ + "/checkpoint.skdb").c_str());
    std::remove((dir_ + "/checkpoint.skdb.tmp").c_str());
    ::rmdir(dir_.c_str());
  }

  std::unique_ptr<Database> Open(FsyncPolicy fsync = FsyncPolicy::kNever) {
    auto opened = Database::Open(dir_, fsync);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? opened.MoveValue() : nullptr;
  }

  int64_t Count(Database* db, const std::string& table,
                const std::string& where = "") {
    std::string sql = "SELECT COUNT(*) FROM " + table;
    if (!where.empty()) sql += " WHERE " + where;
    auto out = db->Query(sql);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (!out.ok()) return -1;
    return out.value().result.rows[0][0].AsInt();
  }

  void SeedAccounts(Database* db, int n) {
    ASSERT_TRUE(db->Execute("CREATE TABLE accounts (id INT, owner STRING, "
                            "balance DOUBLE)")
                    .ok());
    for (int i = 0; i < n; ++i) {
      std::ostringstream os;
      os << "INSERT INTO accounts VALUES (" << i << ", 'owner" << i << "', "
         << (100.0 + i) << ")";
      ASSERT_TRUE(db->Execute(os.str()).ok());
    }
  }

  std::string dir_;
};

TEST_F(RecoveryTest, FreshOpenReopenPreservesCreateAndInsert) {
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    EXPECT_TRUE(db->durable());
    SeedAccounts(db.get(), 10);
    EXPECT_GT(db->wal_stats().wal_appends, 0u);
  }
  auto db = Open();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->wal_stats().recovery_replayed_records, 11u);  // 1 DDL + 10
  EXPECT_EQ(Count(db.get(), "accounts"), 10);
  EXPECT_EQ(Count(db.get(), "accounts", "owner = 'owner3'"), 1);
}

TEST_F(RecoveryTest, UpdateAndDeleteSurviveRecovery) {
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 20);
    ASSERT_TRUE(
        db->Execute("UPDATE accounts SET balance = 0.0 WHERE id < 5").ok());
    ASSERT_TRUE(db->Execute("DELETE FROM accounts WHERE id >= 15").ok());
  }
  auto db = Open();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Count(db.get(), "accounts"), 15);
  EXPECT_EQ(Count(db.get(), "accounts", "balance = 0.0"), 5);
  EXPECT_EQ(Count(db.get(), "accounts", "id >= 15"), 0);

  // Recovery is replay + mask, never resurrection: a second reopen (replay
  // over the identical log) lands in the identical state.
  db.reset();
  db = Open();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Count(db.get(), "accounts"), 15);
  EXPECT_EQ(Count(db.get(), "accounts", "balance = 0.0"), 5);
}

TEST_F(RecoveryTest, KillInTheMiddleRestoresCommittedPrefix) {
  // Statements 0..9 committed; the "crash" tears the log mid-frame.
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 9);  // CREATE + 9 INSERTs = 10 records
  }
  const std::string wal_path = dir_ + "/wal.log";
  const std::string intact = ReadFile(wal_path);
  ASSERT_FALSE(intact.empty());
  WriteFile(wal_path, intact.substr(0, intact.size() - 7));

  auto db = Open();
  ASSERT_NE(db, nullptr);
  // The torn INSERT is gone, every earlier statement is intact.
  EXPECT_EQ(db->wal_stats().recovery_replayed_records, 9u);
  EXPECT_EQ(Count(db.get(), "accounts"), 8);
  EXPECT_EQ(Count(db.get(), "accounts", "id = 8"), 0);
  EXPECT_EQ(Count(db.get(), "accounts", "id = 7"), 1);

  // And the database keeps working past the recovered prefix.
  ASSERT_TRUE(db->Execute("INSERT INTO accounts VALUES (8, 'late', 1.0)").ok());
  EXPECT_EQ(Count(db.get(), "accounts"), 9);
}

TEST_F(RecoveryTest, CheckpointCompactsAndResetsWal) {
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 30);
    ASSERT_TRUE(db->Execute("DELETE FROM accounts WHERE id < 10").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->wal_stats().checkpoints, 1u);
    // The snapshot carries everything; the log restarts empty.
    EXPECT_EQ(ReadFile(dir_ + "/wal.log").size(), 0u);
    // Post-checkpoint DML lands in the fresh log.
    ASSERT_TRUE(
        db->Execute("UPDATE accounts SET owner = 'z' WHERE id = 20").ok());
  }
  auto db = Open();
  ASSERT_NE(db, nullptr);
  // Snapshot (20 surviving rows, compacted) + 1 replayed UPDATE.
  EXPECT_EQ(db->wal_stats().recovery_replayed_records, 1u);
  EXPECT_EQ(Count(db.get(), "accounts"), 20);
  EXPECT_EQ(Count(db.get(), "accounts", "owner = 'z'"), 1);
  EXPECT_EQ(Count(db.get(), "accounts", "id < 10"), 0);
}

TEST_F(RecoveryTest, CrashBetweenSnapshotRenameAndWalResetIsIdempotent) {
  // The checkpoint crash window: the new snapshot is renamed into place,
  // the crash lands before the WAL reset, so recovery sees the compacted
  // snapshot plus the entire pre-checkpoint log. The snapshot's LSN fence
  // must skip every stale record — replaying them would double-apply the
  // inserts, and the update/delete row ids address the pre-compaction
  // numbering.
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 10);
    // The DELETE makes checkpoint compaction renumber rows, so a stale
    // replay would corrupt data, not just duplicate it.
    ASSERT_TRUE(db->Execute("DELETE FROM accounts WHERE id < 3").ok());
    ASSERT_TRUE(
        db->Execute("UPDATE accounts SET balance = 5.0 WHERE id = 7").ok());
    const std::string stale_wal = ReadFile(dir_ + "/wal.log");
    ASSERT_FALSE(stale_wal.empty());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Simulate the crash: the pre-checkpoint log reappears in full.
    WriteFile(dir_ + "/wal.log", stale_wal);
  }
  auto db = Open();
  ASSERT_NE(db, nullptr);
  // Every stale record is at or below the snapshot's fence: none replayed.
  EXPECT_EQ(db->wal_stats().recovery_replayed_records, 0u);
  EXPECT_EQ(Count(db.get(), "accounts"), 7);
  EXPECT_EQ(Count(db.get(), "accounts", "id < 3"), 0);
  EXPECT_EQ(Count(db.get(), "accounts", "balance = 5.0"), 1);

  // New DML takes LSNs past the fence and replays on the next open even
  // though the stale frames still precede it in the file.
  ASSERT_TRUE(
      db->Execute("INSERT INTO accounts VALUES (100, 'post', 1.0)").ok());
  db.reset();
  db = Open();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->wal_stats().recovery_replayed_records, 1u);
  EXPECT_EQ(Count(db.get(), "accounts"), 8);
  EXPECT_EQ(Count(db.get(), "accounts", "id = 100"), 1);
  EXPECT_EQ(Count(db.get(), "accounts", "balance = 5.0"), 1);
}

TEST_F(RecoveryTest, DropAndRecreateNeverResurrectsRows) {
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 5);
    ASSERT_TRUE(db->Execute("DROP TABLE accounts").ok());
    ASSERT_TRUE(
        db->Execute("CREATE TABLE accounts (id INT, owner STRING)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO accounts VALUES (777, 'new')").ok());
  }
  auto db = Open();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Count(db.get(), "accounts"), 1);
  EXPECT_EQ(Count(db.get(), "accounts", "id = 777"), 1);
  auto out = db->Query("SELECT owner FROM accounts");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().result.rows.size(), 1u);
  EXPECT_EQ(out.value().result.rows[0][0].AsString(), "new");
}

TEST_F(RecoveryTest, DropAndRecreateAcrossCheckpoint) {
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 5);
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Execute("DROP TABLE accounts").ok());
    ASSERT_TRUE(
        db->Execute("CREATE TABLE accounts (id INT, owner STRING)").ok());
  }
  auto db = Open();
  ASSERT_NE(db, nullptr);
  // Snapshot has the old 5-row table; the replayed DROP + CREATE leave the
  // new, empty one.
  EXPECT_EQ(Count(db.get(), "accounts"), 0);
}

TEST_F(RecoveryTest, CorruptSnapshotIsRejected) {
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 3);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::string snap = ReadFile(dir_ + "/checkpoint.skdb");
  ASSERT_GT(snap.size(), 30u);
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0x40);
  WriteFile(dir_ + "/checkpoint.skdb", snap);
  auto opened = Database::Open(dir_);
  EXPECT_FALSE(opened.ok());
}

TEST_F(RecoveryTest, MutationStatsReportWalActivity) {
  auto db = Open();
  ASSERT_NE(db, nullptr);
  SeedAccounts(db.get(), 10);
  auto session = db->CreateSession();
  auto stmt = session->Prepare("UPDATE accounts SET balance = ? WHERE id = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value()->num_params(), 2);
  auto out = stmt.value()->Execute({Value::Double(1.5), Value::Int(4)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().result.rows.size(), 1u);
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(), 1);  // rows_affected
  EXPECT_EQ(out.value().stats.wal_appends, 1u);
  EXPECT_GT(out.value().stats.wal_bytes, 0u);
  EXPECT_EQ(Count(db.get(), "accounts", "balance = 1.5"), 1);

  // A DELETE that matches nothing applies no change and logs nothing.
  const uint64_t before = db->wal_stats().wal_appends;
  ASSERT_TRUE(db->Execute("DELETE FROM accounts WHERE id = 999").ok());
  EXPECT_EQ(db->wal_stats().wal_appends, before);
}

TEST_F(RecoveryTest, ParameterizedDmlSurvivesRecovery) {
  {
    auto db = Open();
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 10);
    auto session = db->CreateSession();
    auto update =
        session->Prepare("UPDATE accounts SET owner = ? WHERE id = ?");
    ASSERT_TRUE(update.ok());
    auto del = session->Prepare("DELETE FROM accounts WHERE id = ?");
    ASSERT_TRUE(del.ok());
    ASSERT_TRUE(
        update.value()->Execute({Value::String("alice"), Value::Int(2)}).ok());
    ASSERT_TRUE(del.value()->Execute({Value::Int(9)}).ok());
  }
  auto db = Open();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Count(db.get(), "accounts"), 9);
  EXPECT_EQ(Count(db.get(), "accounts", "owner = 'alice'"), 1);
  EXPECT_EQ(Count(db.get(), "accounts", "id = 9"), 0);
}

TEST_F(RecoveryTest, FsyncAlwaysRoundTrips) {
  {
    auto db = Open(FsyncPolicy::kAlways);
    ASSERT_NE(db, nullptr);
    SeedAccounts(db.get(), 3);
  }
  auto db = Open(FsyncPolicy::kAlways);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Count(db.get(), "accounts"), 3);
}

TEST_F(RecoveryTest, FailedLogAppendPublishesAndLogsNothing) {
  auto db = Open();
  ASSERT_NE(db, nullptr);
  SeedAccounts(db.get(), 3);
  // Cap this process's file size 5 bytes past the log's end: the next
  // frame is torn (write() stores 5 bytes, then fails with EFBIG).
  const rlim_t wal_size = ReadFile(dir_ + "/wal.log").size();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  ASSERT_TRUE(saved.rlim_max == RLIM_INFINITY || saved.rlim_max > wal_size + 5);
  rlimit cap = saved;
  cap.rlim_cur = wal_size + 5;
  auto* saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
  Status failed = db->Execute("UPDATE accounts SET balance = 0 WHERE id = 1");
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);
  EXPECT_FALSE(failed.ok());

  // Nothing was published...
  EXPECT_EQ(Count(db.get(), "accounts", "balance = 0"), 0);
  // ...and nothing stayed in the log: a later write survives replay.
  ASSERT_TRUE(db->Execute("DELETE FROM accounts WHERE id = 2").ok());
  db.reset();
  db = Open();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Count(db.get(), "accounts"), 2);
  EXPECT_EQ(Count(db.get(), "accounts", "balance = 0"), 0);
}

TEST_F(RecoveryTest, InMemoryDatabaseHasNoWal) {
  Database db;
  EXPECT_FALSE(db.durable());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = 1").ok());
  EXPECT_EQ(db.wal_stats().wal_appends, 0u);
  // Checkpoint still compacts, it just persists nothing.
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(db.wal_stats().checkpoints, 1u);
}

}  // namespace
}  // namespace skinner
