// Micro-benchmarks (google-benchmark) for SkinnerDB's core mechanisms:
// UCT selection, progress backup/restore, hash-index probing and the
// per-slice suspend/resume overhead that makes tens of thousands of join
// order switches per second possible (paper Section 6.1), and Skinner-C's
// result export (dedup + canonical sort of the emitted tuples).

#include <benchmark/benchmark.h>

#include <chrono>

#include "api/database.h"
#include "benchgen/job.h"
#include "common/rng.h"
#include "exec/result_set.h"
#include "skinner/progress.h"
#include "skinner/skinner_c.h"
#include "uct/uct.h"

namespace skinner {
namespace {

struct ChainFixture {
  ChainFixture(int num_tables, int64_t rows) {
    for (int i = 0; i < num_tables; ++i) {
      auto r = db.catalog()->CreateTable(
          "t" + std::to_string(i),
          Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
      Table* t = r.value();
      for (int64_t j = 0; j < rows; ++j) {
        t->mutable_column(0)->AppendInt(j % (rows / 4 + 1));
        t->mutable_column(1)->AppendInt(j % (rows / 4 + 1));
        t->CommitRow();
      }
    }
    std::string sql = "SELECT COUNT(*) FROM ";
    for (int i = 0; i < num_tables; ++i) {
      if (i) sql += ", ";
      sql += "t" + std::to_string(i);
    }
    sql += " WHERE ";
    for (int i = 0; i + 1 < num_tables; ++i) {
      if (i) sql += " AND ";
      sql += "t" + std::to_string(i) + ".y = t" + std::to_string(i + 1) + ".x";
    }
    query = db.Bind(sql).MoveValue();
    info = std::make_unique<QueryInfo>(QueryInfo::Analyze(*query).MoveValue());
  }

  Database db;
  std::unique_ptr<BoundQuery> query;
  std::unique_ptr<QueryInfo> info;
};

void BM_UctChoose(benchmark::State& state) {
  ChainFixture fx(static_cast<int>(state.range(0)), 64);
  UctOptions opts;
  JoinOrderUct uct(fx.info.get(), opts);
  Rng rng(7);
  std::vector<int> order;
  for (auto _ : state) {
    uct.Choose(&order);
    benchmark::DoNotOptimize(order);
    uct.RewardUpdate(order, rng.NextDouble());
  }
}
BENCHMARK(BM_UctChoose)->Arg(4)->Arg(8)->Arg(12);

void BM_ProgressBackupRestore(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  ProgressTree tree(m);
  std::vector<int> order(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) order[static_cast<size_t>(i)] = i;
  JoinState s;
  s.depth = m - 1;
  s.pos.assign(static_cast<size_t>(m), 5);
  uint64_t tick = 0;
  for (auto _ : state) {
    s.pos[0] = static_cast<int64_t>(++tick);
    tree.Backup(order, s);
    JoinState restored;
    benchmark::DoNotOptimize(tree.Restore(order, &restored));
  }
}
BENCHMARK(BM_ProgressBackupRestore)->Arg(4)->Arg(8)->Arg(16);

void BM_HashIndexProbe(benchmark::State& state) {
  const int64_t n = state.range(0);
  Column keys(DataType::kInt64);
  std::vector<int32_t> rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    keys.AppendInt(i % 97);
    rows[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  const HashIndex index(JoinKeyView(keys), rows);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Find(key));
    key = (key + 1) % 97;
  }
}
BENCHMARK(BM_HashIndexProbe)->Arg(1024)->Arg(65536);

/// End-to-end slice throughput: how many time slices (join order switches)
/// per second Skinner-C sustains, including restore/backup.
void BM_SkinnerSliceSwitching(benchmark::State& state) {
  ChainFixture fx(6, 256);
  VirtualClock clock;
  PrepareOptions popts;
  auto pq = PreparedQuery::Prepare(fx.query.get(), fx.info.get(),
                                   fx.db.catalog()->string_pool(), &clock,
                                   popts);
  SkinnerCOptions opts;
  opts.slice_budget = static_cast<int64_t>(state.range(0));
  opts.deadline = UINT64_MAX;
  // One engine per run; each iteration executes one slice worth of work by
  // re-running a fresh engine for a bounded number of slices.
  for (auto _ : state) {
    state.PauseTiming();
    SkinnerCEngine engine(pq.value().get(), opts);
    state.ResumeTiming();
    ResultSet out(pq.value()->num_tables());
    benchmark::DoNotOptimize(engine.Run(&out));
  }
}
BENCHMARK(BM_SkinnerSliceSwitching)->Arg(50)->Arg(500)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

/// Skinner-C's result export, ResultSet::MergeSortedUnique: 200k emitted
/// tuples of the given width (positions uniform in [0, 2^17)) over four
/// worker buffers, about 3% of them re-emits of earlier tuples. The
/// buffers take the layout the query pipeline gives a join result (every
/// table of cardinality 2^17: 17 bits per column), so widths 4/8/12 are
/// 2-, 3- and 4-word keys. Reports ns per emitted tuple.
void BM_ResultExport(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  constexpr size_t kTuples = 200000;
  constexpr size_t kWorkers = 4;
  Rng rng(17);
  const ResultSet layout(
      std::vector<int64_t>(static_cast<size_t>(width), int64_t{1} << 17));
  std::vector<ResultSet> parts(kWorkers, layout);
  std::vector<PosTuple> emitted;
  emitted.reserve(kTuples);
  PosTuple t(static_cast<size_t>(width));
  for (size_t i = 0; i < kTuples; ++i) {
    if (!emitted.empty() && rng.Uniform(100) < 3) {
      t = emitted[rng.Uniform(emitted.size())];
    } else {
      for (int32_t& p : t) p = static_cast<int32_t>(rng.Uniform(1 << 17));
    }
    emitted.push_back(t);
    parts[i % kWorkers].Append(t);
  }
  std::vector<const ResultSet*> views;
  for (const ResultSet& p : parts) views.push_back(&p);
  double ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    ResultSet out = layout.EmptyLike();
    ResultSet::MergeSortedUnique(views, &out);
    benchmark::DoNotOptimize(out.size());
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
  }
  state.counters["ns_per_tuple"] =
      ns / (static_cast<double>(state.iterations()) * kTuples);
}
BENCHMARK(BM_ResultExport)->Arg(4)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndJobQuery(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database();
    bench::JobSpec spec;
    spec.num_titles = 1000;
    bench::GenerateJob(d, spec);
    return d;
  }();
  bench::JobWorkload w = bench::JobQueries();
  const std::string& sql = w.queries[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    ExecOptions opts;
    opts.engine = EngineKind::kSkinnerC;
    benchmark::DoNotOptimize(db->Query(sql, opts));
  }
}
BENCHMARK(BM_EndToEndJobQuery)->Arg(0)->Arg(6)->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace skinner

BENCHMARK_MAIN();
