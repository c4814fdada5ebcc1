// Morsel-parallel pre-processing benchmark (paper Section 4.5: filtering
// and hash-index creation are the one phase SkinnerDB parallelizes):
// a filter-heavy multi-table chain workload is prepared at configured
// widths 1/2/4/8 and the virtual pre-processing cost — the list-schedule
// makespan of the filter morsels plus the index-build jobs at the
// configured width — is reported per width.
//
// The makespan is a pure function of (data, query, width): deterministic
// on any machine, including the 1-core CI runner, which is why the gate
// is on virtual cost rather than wall time. Wall-clock seconds are
// printed for local trajectory only, never gated.
//
// Every width must produce bit-identical artifacts: the surviving-row
// vectors and the frozen Swiss-table layouts are fingerprinted and
// compared against the sequential build (also enforced by the tier-1
// preprocess_parallel_test).
//
// CI-gated via RESULT metrics (bench/compare_benchmarks.py):
//   - preprocess_speedup_4w >= 2x is the acceptance floor (also enforced
//     by the exit code);
//   - preprocess_cost_1w is gated against cost regressions.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/query_pipeline.h"
#include "common/hash_util.h"
#include "exec/prepared_query.h"

using namespace skinner;

namespace {

constexpr int kTables = 4;
constexpr int64_t kRows = 50000;  // ~12 filter morsels per table
constexpr int64_t kDomain = 1024;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Chain tables c0..c3 with a selective unary predicate per table and an
/// indexed join column each: pre-processing is dominated by the filter
/// scans plus four comparable index builds, the shape the morsel +
/// list-schedule model is meant to overlap.
void BuildDb(Database* db) {
  for (int t = 0; t < kTables; ++t) {
    const std::string name = "c" + std::to_string(t);
    db->Execute("CREATE TABLE " + name + " (k INT, v INT)");
    Table* table = db->catalog()->FindTable(name);
    for (int64_t r = 0; r < kRows; ++r) {
      table->mutable_column(0)->AppendInt((r * (t + 3) + r / 7) % kDomain);
      table->mutable_column(1)->AppendInt(r % 211);
      table->CommitRow();
    }
  }
}

const char* Query() {
  return "SELECT COUNT(*) FROM c0, c1, c2, c3 WHERE c0.k = c1.k "
         "AND c1.k = c2.k AND c2.k = c3.k AND c0.v < 120 AND c1.v < 140 "
         "AND c2.v < 160 AND c3.v < 180";
}

/// Order-sensitive fingerprint of the whole artifact bundle: surviving
/// rows plus every frozen index layout of every table.
uint64_t BundleFingerprint(const PreparedQuery::Data& data) {
  uint64_t h = 0xbe5caffeull;
  for (const auto& art : data.artifacts) {
    h = HashMix64(h ^ art->filtered.size());
    for (int32_t r : art->filtered) {
      h = HashMix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(r)));
    }
    std::vector<int> cols;
    for (const auto& [col, idx] : art->indexes) cols.push_back(col);
    std::sort(cols.begin(), cols.end());
    for (int col : cols) {
      h = HashMix64(h ^ static_cast<uint64_t>(col) ^
                    art->indexes.at(col)->Fingerprint());
    }
  }
  return h;
}

struct Run {
  uint64_t cost = 0;
  uint64_t fingerprint = 0;
  double wall_s = 0;
};

Run PrepareAt(Database* db, bool parallel, int width) {
  QueryPipeline pipe(db->catalog(), db->udfs(), db->stats_manager(),
                     /*cache=*/nullptr, db->scheduler());
  auto stmt = pipe.Parse(Query());
  auto bound = pipe.Bind(std::move(stmt.value()));
  ExecOptions opts;
  opts.parallel_preprocess = parallel;
  opts.num_threads = width;
  const double t0 = NowSeconds();
  auto stage = pipe.Prepare(std::move(bound.value()), opts);
  const double t1 = NowSeconds();
  if (!stage.ok()) {
    std::printf("ERROR: %s\n", stage.status().ToString().c_str());
    std::exit(1);
  }
  Run run;
  run.cost = stage.value().pq->preprocess_cost();
  run.fingerprint = BundleFingerprint(*stage.value().pq->shared_data());
  run.wall_s = t1 - t0;
  return run;
}

}  // namespace

int main() {
  std::printf("bench_preprocess: morsel-parallel pre-processing\n");
  std::printf("workload: %d chain tables x %lld rows, unary filter + "
              "indexed join column each\n",
              kTables, static_cast<long long>(kRows));

  Database db;
  BuildDb(&db);

  const Run seq = PrepareAt(&db, /*parallel=*/false, 1);
  std::printf("sequential: cost=%llu wall=%.3fs fp=%016llx\n",
              static_cast<unsigned long long>(seq.cost), seq.wall_s,
              static_cast<unsigned long long>(seq.fingerprint));

  bool ok = true;
  const std::vector<int> widths = {1, 2, 4, 8};
  std::vector<Run> runs;
  for (int w : widths) {
    Run r = PrepareAt(&db, /*parallel=*/true, w);
    runs.push_back(r);
    const double speedup =
        r.cost > 0 ? static_cast<double>(seq.cost) / static_cast<double>(r.cost)
                   : 0;
    const bool identical = r.fingerprint == seq.fingerprint;
    std::printf("width %d: cost=%llu (%.2fx) wall=%.3fs artifacts %s\n", w,
                static_cast<unsigned long long>(r.cost), speedup,
                r.wall_s, identical ? "bit-identical" : "DIVERGED");
    if (!identical) ok = false;
  }

  // Width 1 must charge exactly the sequential cost: the makespan over
  // one machine is the plain sum.
  if (runs[0].cost != seq.cost) {
    std::printf("FAILED: width-1 cost %llu != sequential %llu\n",
                static_cast<unsigned long long>(runs[0].cost),
                static_cast<unsigned long long>(seq.cost));
    ok = false;
  }

  const double speedup_2w =
      static_cast<double>(seq.cost) / static_cast<double>(runs[1].cost);
  const double speedup_4w =
      static_cast<double>(seq.cost) / static_cast<double>(runs[2].cost);
  const double speedup_8w =
      static_cast<double>(seq.cost) / static_cast<double>(runs[3].cost);
  std::printf("\npreprocess_speedup_4w: %.2fx (target >= 2x)\n", speedup_4w);
  if (speedup_4w < 2.0) {
    std::printf("FAILED acceptance check\n");
    ok = false;
  }

  std::printf("RESULT bench_preprocess preprocess_cost_1w=%llu "
              "preprocess_speedup_2w=%.3f preprocess_speedup_4w=%.3f "
              "preprocess_speedup_8w=%.3f\n",
              static_cast<unsigned long long>(runs[0].cost), speedup_2w,
              speedup_4w, speedup_8w);
  return ok ? 0 : 1;
}
