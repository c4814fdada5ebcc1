#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "test_util.h"

namespace skinner {
namespace {

/// Renders one batch's per-item outputs (rows in emitted order + join
/// result sizes) so two runs can be compared for bit-identity. Errors
/// render as their status string.
std::string RenderBatch(const std::vector<Result<QueryOutput>>& results) {
  std::string out;
  for (size_t i = 0; i < results.size(); ++i) {
    out += "#" + std::to_string(i) + ":";
    if (!results[i].ok()) {
      out += "ERR(" + results[i].status().ToString() + ")\n";
      continue;
    }
    const QueryOutput& q = results[i].value();
    out += "tuples=" + std::to_string(q.stats.join_result_tuples) + "|";
    for (const auto& row : q.result.rows) {
      for (const auto& v : row) out += v.ToString() + ",";
      out += ";";
    }
    out += "\n";
  }
  return out;
}

class BatchQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::RandomDbSpec spec;
    spec.num_tables = 4;
    spec.min_rows = 20;
    spec.max_rows = 40;
    spec.key_domain = 5;
    spec.seed = 7;
    ASSERT_TRUE(testing::BuildRandomDb(&db_, spec, &tables_).ok());
  }

  /// A mixed workload: repeated templates (to exercise sharing), several
  /// engines (to exercise the shared estimator/stats path), aggregates and
  /// ORDER BY (to exercise post-processing).
  std::vector<BatchItem> MixedItems() {
    std::vector<BatchItem> items;
    auto add = [&](const std::string& sql, EngineKind e) {
      BatchItem it;
      it.sql = sql;
      it.opts.engine = e;
      items.push_back(std::move(it));
    };
    const std::string join2 = "SELECT COUNT(*) FROM " + tables_[0] + ", " +
                              tables_[1] + " WHERE " + tables_[0] +
                              ".fk = " + tables_[1] + ".pk";
    const std::string join3 = "SELECT COUNT(*) FROM " + tables_[0] + ", " +
                              tables_[1] + ", " + tables_[2] + " WHERE " +
                              tables_[0] + ".fk = " + tables_[1] +
                              ".pk AND " + tables_[1] + ".fk = " + tables_[2] +
                              ".pk";
    const std::string rows = "SELECT " + tables_[0] + ".pk, " + tables_[1] +
                             ".val FROM " + tables_[0] + ", " + tables_[1] +
                             " WHERE " + tables_[0] + ".fk = " + tables_[1] +
                             ".pk ORDER BY " + tables_[0] + ".pk DESC";
    for (int rep = 0; rep < 3; ++rep) {
      add(join2, EngineKind::kSkinnerC);
      add(join3, EngineKind::kSkinnerC);
      add(rows, EngineKind::kSkinnerC);
      add(join2, EngineKind::kVolcano);
      add(join3, EngineKind::kSkinnerH);
    }
    return items;
  }

  Database db_;
  std::vector<std::string> tables_;
};

TEST_F(BatchQueryTest, ConcurrencyDoesNotChangeResults) {
  // The satellite contract: the same batch at concurrency 1 and 4 yields
  // bit-identical per-item rows and identical per-item join_result_tuples
  // (run under TSan in CI via the tier1 label).
  std::vector<BatchItem> items = MixedItems();

  BatchOptions seq;
  seq.num_workers = 1;
  std::vector<Result<QueryOutput>> r1 = db_.QueryBatch(items, seq);

  BatchOptions par;
  par.num_workers = 4;
  std::vector<Result<QueryOutput>> r4 = db_.QueryBatch(items, par);

  ASSERT_EQ(r1.size(), items.size());
  ASSERT_EQ(r4.size(), items.size());
  for (const auto& r : r1) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(RenderBatch(r1), RenderBatch(r4));
}

TEST_F(BatchQueryTest, BatchAgreesWithIndividualQueries) {
  std::vector<BatchItem> items = MixedItems();
  BatchOptions bo;
  bo.num_workers = 4;
  bo.use_prepared_cache = false;  // batch-local sharing only
  std::vector<Result<QueryOutput>> batch = db_.QueryBatch(items, bo);

  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto solo = db_.Query(items[i].sql, items[i].opts);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    // Seeds differ (the batch derives per-item seeds) but the engines are
    // exact: same rows, same join result size.
    EXPECT_EQ(testing::CanonicalRows(batch[i].value().result),
              testing::CanonicalRows(solo.value().result))
        << "item " << i;
    EXPECT_EQ(batch[i].value().stats.join_result_tuples,
              solo.value().stats.join_result_tuples)
        << "item " << i;
  }
}

TEST_F(BatchQueryTest, OnePrepaymentPerTemplateGroup) {
  // 8 identical items: exactly one (the first) pays pre-processing, the
  // rest are served from the shared artifact — deterministically, at any
  // concurrency.
  std::vector<BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    BatchItem it;
    it.sql = "SELECT COUNT(*) FROM " + tables_[0] + ", " + tables_[1] +
             " WHERE " + tables_[0] + ".fk = " + tables_[1] + ".pk";
    items.push_back(std::move(it));
  }
  BatchOptions bo;
  bo.num_workers = 4;
  bo.use_prepared_cache = false;  // fresh batch-local cache => one build
  std::vector<Result<QueryOutput>> results = db_.QueryBatch(items, bo);
  ASSERT_EQ(results.size(), 8u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    const ExecutionStats& s = results[i].value().stats;
    if (i == 0) {
      EXPECT_GT(s.preprocess_cost, 0u);
      EXPECT_FALSE(s.prepared_from_cache);
    } else {
      EXPECT_EQ(s.preprocess_cost, 0u);
      EXPECT_TRUE(s.prepared_from_cache);
    }
  }
  // Nothing leaked into the database's cross-query cache.
  EXPECT_EQ(db_.prepared_cache()->stats().table_entries, 0u);
}

TEST_F(BatchQueryTest, SharedCachePersistsAcrossBatches) {
  BatchItem item;
  item.sql = "SELECT COUNT(*) FROM " + tables_[0] + ", " + tables_[1] +
             " WHERE " + tables_[0] + ".fk = " + tables_[1] + ".pk";
  BatchOptions bo;
  bo.num_workers = 2;
  bo.use_prepared_cache = true;

  auto first = db_.QueryBatch({item, item}, bo);
  ASSERT_TRUE(first[0].ok() && first[1].ok());
  EXPECT_GT(first[0].value().stats.preprocess_cost, 0u);

  // A later batch (and a later plain Query) hit the persisted artifact.
  auto second = db_.QueryBatch({item}, bo);
  ASSERT_TRUE(second[0].ok());
  EXPECT_TRUE(second[0].value().stats.prepared_from_cache);

  ExecOptions qopts;
  qopts.use_prepared_cache = true;
  auto solo = db_.Query(item.sql, qopts);
  ASSERT_TRUE(solo.ok());
  EXPECT_TRUE(solo.value().stats.prepared_from_cache);
  EXPECT_EQ(solo.value().stats.preprocess_cost, 0u);
}

TEST_F(BatchQueryTest, BadItemsFailIndividually) {
  std::vector<BatchItem> items(3);
  items[0].sql = "SELECT COUNT(*) FROM " + tables_[0];
  items[1].sql = "SELECT COUNT(*) FROM no_such_table";
  items[2].sql = "THIS IS NOT SQL";
  BatchOptions bo;
  bo.num_workers = 4;
  std::vector<Result<QueryOutput>> results = db_.QueryBatch(items, bo);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
}

TEST_F(BatchQueryTest, EmptyBatch) {
  EXPECT_TRUE(db_.QueryBatch({}, {}).empty());
}

}  // namespace
}  // namespace skinner
