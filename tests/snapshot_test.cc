// Readers never wait for writers: a query pins the catalog version it binds
// against, and every writer (UPDATE, DELETE, prepared DML, CHECKPOINT,
// DROP) commits a new version beside it. A query parked inside a UDF must
// therefore not block any writer, and must still return exactly the rows
// of the version it pinned.
//
// Every wait is bounded: a build where writers wait for readers fails here
// instead of hanging.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "api/session.h"

namespace skinner {
namespace {

using std::chrono::seconds;

constexpr auto kWriterTimeout = seconds(10);
constexpr auto kParkTimeout = seconds(30);

/// The UDF `park(x)` returns x. While armed, its first call signals
/// `parked` and waits (bounded) until Release().
class ParkingLot {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    parked_ = false;
    released_ = false;
  }
  /// Called from the UDF on the query's thread.
  void MaybePark() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    armed_ = false;
    parked_ = true;
    cv_.notify_all();
    cv_.wait_for(lock, kParkTimeout, [&] { return released_; });
  }
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kWriterTimeout, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "skinner_snapshot_test_" +
           std::to_string(::getpid());
    Cleanup();
    auto opened = Database::Open(dir_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = opened.MoveValue();
    ASSERT_TRUE(db_->udfs()
                    ->Register("park", 1, DataType::kInt64,
                               [this](const std::vector<Value>& args) {
                                 lot_.MaybePark();
                                 return args[0];
                               })
                    .ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE t (k INT, v INT, s STRING)").ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE u (k INT, w DOUBLE)").ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE other (x INT)").ok());
    for (int batch = 0; batch < 4; ++batch) {
      std::string t_rows, u_rows;
      for (int i = batch * 50; i < (batch + 1) * 50; ++i) {
        const std::string k = std::to_string(i);
        t_rows += (t_rows.empty() ? "" : ", ") + std::string("(") + k + ", " +
                  std::to_string(i * 7 % 13) + ", 's" + std::to_string(i % 9) +
                  "')";
        u_rows += (u_rows.empty() ? "" : ", ") + std::string("(") + k + ", " +
                  std::to_string(i) + ".5)";
      }
      ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES " + t_rows).ok());
      ASSERT_TRUE(db_->Execute("INSERT INTO u VALUES " + u_rows).ok());
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO other VALUES (1), (2)").ok());
  }

  void TearDown() override {
    db_.reset();
    Cleanup();
  }

  void Cleanup() {
    std::remove((dir_ + "/wal.log").c_str());
    std::remove((dir_ + "/checkpoint.skdb").c_str());
    std::remove((dir_ + "/checkpoint.skdb.tmp").c_str());
    ::rmdir(dir_.c_str());
  }

  /// Runs `write` on its own thread and requires it to finish within the
  /// writer timeout while the parked query holds its version.
  void ExpectWriterReturns(const std::string& what,
                           const std::function<Status()>& write) {
    std::future<Status> done = std::async(std::launch::async, write);
    if (done.wait_for(kWriterTimeout) != std::future_status::ready) {
      ADD_FAILURE() << what << " waited for the parked query";
      lot_.Release();  // unblock so the test ends instead of hanging
    }
    Status st = done.get();
    EXPECT_TRUE(st.ok()) << what << ": " << st.ToString();
  }

  int64_t Count(const std::string& sql) {
    auto out = db_->Query(sql);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out.value().result.rows[0][0].AsInt() : -1;
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  ParkingLot lot_;
};

constexpr const char* kParkedSql =
    "SELECT t.k, t.v, t.s, u.w FROM t, u "
    "WHERE t.k = u.k AND park(t.k) >= 0 ORDER BY t.k";

TEST_F(SnapshotTest, ParkedReaderBlocksNoWriterAndKeepsItsVersion) {
  // Reference rows, taken before any write (park disarmed).
  auto reference = db_->Query(kParkedSql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference.value().result.rows.size(), 200u);

  auto session = db_->CreateSession();
  auto prepared_update = session->Prepare("UPDATE t SET s = ? WHERE k = ?");
  ASSERT_TRUE(prepared_update.ok()) << prepared_update.status().ToString();
  auto prepared_count = session->Prepare("SELECT COUNT(*) FROM t WHERE k < ?");
  ASSERT_TRUE(prepared_count.ok()) << prepared_count.status().ToString();
  auto before = prepared_count.value()->Execute({Value::Int(1000)});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().result.rows[0][0].AsInt(), 200);

  lot_.Arm();
  std::future<Result<QueryOutput>> parked = std::async(
      std::launch::async, [&] { return db_->Query(kParkedSql); });
  ASSERT_TRUE(lot_.WaitParked()) << "the query never reached the UDF";

  ExpectWriterReturns("UPDATE", [&] {
    return db_->Execute("UPDATE t SET v = v + 100 WHERE k < 10");
  });
  ExpectWriterReturns("DELETE", [&] {
    return db_->Execute("DELETE FROM t WHERE k >= 190");
  });
  ExpectWriterReturns("prepared UPDATE", [&] {
    auto out = prepared_update.value()->Execute(
        {Value::String("changed"), Value::Int(5)});
    return out.ok() ? Status::OK() : out.status();
  });
  ExpectWriterReturns("CHECKPOINT", [&] { return db_->Checkpoint(); });
  ExpectWriterReturns("DROP of an unread table",
                      [&] { return db_->Execute("DROP TABLE other"); });

  lot_.Release();
  ASSERT_EQ(parked.wait_for(kParkTimeout), std::future_status::ready);
  Result<QueryOutput> out = parked.get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Bit-identical to the pre-write reference: the parked query read only
  // the version it pinned, through the UPDATEs, the DELETE and the
  // checkpoint's compaction.
  EXPECT_EQ(out.value().result.column_names,
            reference.value().result.column_names);
  EXPECT_EQ(out.value().result.rows, reference.value().result.rows);

  // A new query sees every write.
  EXPECT_EQ(Count("SELECT COUNT(*) FROM t"), 190);
  EXPECT_EQ(Count("SELECT COUNT(*) FROM t WHERE v >= 100"), 10);
  EXPECT_EQ(Count("SELECT COUNT(*) FROM t WHERE s = 'changed'"), 1);
  EXPECT_FALSE(db_->Query("SELECT COUNT(*) FROM other").ok());

  // The prepared SELECT ran across the writes without going stale, and
  // sees them.
  auto after = prepared_count.value()->Execute({Value::Int(1000)});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().result.rows[0][0].AsInt(), 190);

  // DROP + CREATE of its table makes it stale.
  ASSERT_TRUE(db_->Execute("DROP TABLE t").ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE t (k INT, v INT, s STRING)").ok());
  auto stale = prepared_count.value()->Execute({Value::Int(1000)});
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos)
      << stale.status().ToString();
  auto stale_dml = prepared_update.value()->Execute(
      {Value::String("x"), Value::Int(1)});
  EXPECT_FALSE(stale_dml.ok());
}

TEST_F(SnapshotTest, BoundQueryRunsOnItsPinnedVersionAfterWrites) {
  // Database::Bind pins a version: re-running the bound query after DML
  // returns the pre-write rows, a fresh bind sees the writes.
  auto bound = db_->Bind("SELECT COUNT(*) FROM t WHERE v < 5");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto first = db_->RunSelect(*bound.value());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(db_->Execute("DELETE FROM t WHERE v < 5").ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  auto again = db_->RunSelect(*bound.value());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().result.rows, first.value().result.rows);
  EXPECT_GT(first.value().result.rows[0][0].AsInt(), 0);
  EXPECT_EQ(Count("SELECT COUNT(*) FROM t WHERE v < 5"), 0);
}

TEST_F(SnapshotTest, DroppedTableOutlivesTheQueryThatPinsIt) {
  lot_.Arm();
  std::future<Result<QueryOutput>> parked = std::async(std::launch::async, [&] {
    return db_->Query("SELECT COUNT(*) FROM t WHERE park(k) >= 0");
  });
  ASSERT_TRUE(lot_.WaitParked()) << "the query never reached the UDF";
  ExpectWriterReturns("DROP of the read table",
                      [&] { return db_->Execute("DROP TABLE t"); });
  lot_.Release();
  ASSERT_EQ(parked.wait_for(kParkTimeout), std::future_status::ready);
  Result<QueryOutput> out = parked.get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().result.rows[0][0].AsInt(), 200);
  EXPECT_FALSE(db_->Query("SELECT COUNT(*) FROM t").ok());
}

TEST_F(SnapshotTest, ConcurrentReadersSeeOnlyPublishedVersions) {
  // Two readers (literal and prepared, through the artifact cache) race
  // one writer that deletes, updates and checkpoints. Deletes are the only
  // row-count change, so each reader's counts never grow, and every
  // execution succeeds.
  constexpr int kWrites = 60;
  std::atomic<bool> done{false};
  auto reader = [&](bool prepared) {
    auto session = db_->CreateSession();
    auto stmt = session->Prepare(
        "SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v < ?");
    if (!stmt.ok()) return stmt.status();
    int64_t last = INT64_MAX;
    while (!done.load()) {
      Result<QueryOutput> out =
          prepared ? stmt.value()->Execute({Value::Int(1 << 20)})
                   : session->Query("SELECT COUNT(*) FROM t, u WHERE t.k = u.k");
      if (!out.ok()) return out.status();
      const int64_t n = out.value().result.rows[0][0].AsInt();
      if (n > last) return Status::Internal("row count grew under deletes");
      last = n;
    }
    return Status::OK();
  };
  std::future<Status> r1 = std::async(std::launch::async, reader, false);
  std::future<Status> r2 = std::async(std::launch::async, reader, true);
  Status write_status;
  for (int i = 0; i < kWrites && write_status.ok(); ++i) {
    const std::string k = std::to_string(199 - i);
    write_status = db_->Execute(
        i % 3 == 0 ? "DELETE FROM t WHERE k = " + k
                   : "UPDATE t SET v = v + 1 WHERE k = " + k);
    if (write_status.ok() && i % 20 == 19) write_status = db_->Checkpoint();
  }
  done.store(true);
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_EQ(r1.wait_for(kParkTimeout), std::future_status::ready);
  ASSERT_EQ(r2.wait_for(kParkTimeout), std::future_status::ready);
  Status s1 = r1.get();
  Status s2 = r2.get();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(Count("SELECT COUNT(*) FROM t"), 200 - (kWrites + 2) / 3);
}

}  // namespace
}  // namespace skinner
