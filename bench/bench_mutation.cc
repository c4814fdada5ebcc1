// Mutation + durability benchmark (PR 7).
//
// SkinnerDB's prepared-statement cache keys every table artifact by
// (template signature, table data version), so DML invalidates exactly the
// artifacts of the tables it touched. This bench pins three properties of
// the mutation path:
//
//   1. Hit-rate recovery: after a DML burst, the first execution rebuilds
//      only the mutated table's artifact (the other FROM tables stay
//      cached) and the very next execution is back to a full cache hit.
//      Gated: steady-state rebuilds == 0, rebuilds per burst == 1 (one
//      table mutated per burst), post-burst recovery rebuilds == 0.
//   2. Churn proportionality: total rebuilds across the burst phase equal
//      bursts x tables-touched-per-burst, never the full FROM list.
//   3. Revalidation: a single-row write that keeps every row's filter
//      membership and join keys leaves the mutated table's artifact exact,
//      so the next execution revalidates it against the table's change log
//      instead of rebuilding it. Gated: revalidated_per_write == 1.00,
//      and every result equals the literal query's.
//   4. WAL overhead on the measured path: an identical workload (DML +
//      queries) on a durable database (WAL attached, every DML logged)
//      must report query costs within 10% of the in-memory database —
//      virtual costs are the paper's measurement currency and durability
//      must not distort them. Gated both directions; results must be
//      bit-identical too.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "api/session.h"
#include "benchgen/job.h"
#include "benchgen/runner.h"
#include "common/str_util.h"

using namespace skinner;
using namespace skinner::bench;

namespace {

constexpr uint64_t kDeadline = 60'000'000;
constexpr int kBursts = 5;

std::string ResultFingerprint(const QueryResult& r) {
  std::string out;
  for (const auto& row : r.rows) {
    for (const auto& v : row) {
      out += v.ToString();
      out += ',';
    }
    out += ';';
  }
  return out;
}

/// The literal text of the statement template with the sweep values spliced
/// in (the equivalence oracle for every prepared execution).
std::string LiteralSql(const char* keyword, int64_t year) {
  return StrFormat(
      "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k "
      "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND "
      "k.keyword = '%s' AND t.production_year > %lld",
      keyword, static_cast<long long>(year));
}

/// One interleaved DML + query workload; returns false on any error and
/// accumulates the query-side virtual cost and result fingerprints.
bool RunWorkload(Database* db, uint64_t* query_cost,
                 std::vector<std::string>* fingerprints) {
  ExecOptions opts;
  opts.engine = EngineKind::kSkinnerC;
  opts.deadline = kDeadline;
  *query_cost = 0;
  for (int i = 0; i < kBursts; ++i) {
    std::string update = StrFormat(
        "UPDATE title SET production_year = %d WHERE id < %d", 1900 + i,
        20 * (i + 1));
    Status st = db->Execute(update);
    if (!st.ok()) {
      std::fprintf(stderr, "workload UPDATE failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    auto out = db->Query(LiteralSql("kw_1", 1950), opts);
    if (!out.ok()) {
      std::fprintf(stderr, "workload query failed: %s\n",
                   out.status().ToString().c_str());
      return false;
    }
    *query_cost += out.value().stats.total_cost;
    fingerprints->push_back(ResultFingerprint(out.value().result));
  }
  Status st = db->Execute("DELETE FROM movie_keyword WHERE movie_id < 10");
  if (!st.ok()) {
    std::fprintf(stderr, "workload DELETE failed: %s\n", st.ToString().c_str());
    return false;
  }
  auto out = db->Query(LiteralSql("kw_1", 1950), opts);
  if (!out.ok()) {
    std::fprintf(stderr, "workload query failed: %s\n",
                 out.status().ToString().c_str());
    return false;
  }
  *query_cost += out.value().stats.total_cost;
  fingerprints->push_back(ResultFingerprint(out.value().result));
  return true;
}

}  // namespace

int main() {
  std::printf("bench_mutation: DML bursts vs the prepared cache + WAL (PR 7)\n");

  JobSpec spec;
  spec.num_titles = 4000;

  Database db;
  if (!GenerateJob(&db, spec).ok()) {
    std::fprintf(stderr, "JOB generation failed\n");
    return 1;
  }

  ExecOptions opts;
  opts.engine = EngineKind::kSkinnerC;
  opts.deadline = kDeadline;

  const char* kTemplate =
      "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k "
      "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND "
      "k.keyword = ? AND t.production_year > ?";

  auto session = db.CreateSession(opts);
  auto stmt = session->Prepare(kTemplate);
  if (!stmt.ok()) {
    std::fprintf(stderr, "Prepare failed: %s\n",
                 stmt.status().ToString().c_str());
    return 1;
  }
  auto execute = [&](int* reprepared, int* from_cache,
                     std::string* fp) -> bool {
    auto out = stmt.value()->Execute({Value::String("kw_1"), Value::Int(1950)});
    if (!out.ok()) {
      std::fprintf(stderr, "Execute failed: %s\n",
                   out.status().ToString().c_str());
      return false;
    }
    if (reprepared != nullptr) *reprepared = out.value().stats.tables_reprepared;
    if (from_cache != nullptr) {
      *from_cache = out.value().stats.tables_prepared_from_cache;
    }
    if (fp != nullptr) *fp = ResultFingerprint(out.value().result);
    return true;
  };

  // ---- Phase 1: steady state — every execution after the first is a full
  // cache hit.
  if (!execute(nullptr, nullptr, nullptr)) return 1;  // builds all 3 artifacts
  int steady_reprepared = 0;
  for (int i = 0; i < 3; ++i) {
    int r = 0;
    if (!execute(&r, nullptr, nullptr)) return 1;
    steady_reprepared += r;
  }
  if (steady_reprepared != 0) {
    std::fprintf(stderr,
                 "FAIL: steady state rebuilt %d artifacts (expected 0)\n",
                 steady_reprepared);
    return 1;
  }

  // ---- Phase 2: DML bursts. Each burst updates `title` only, so the next
  // execution must rebuild exactly 1 of the 3 artifacts, and the execution
  // after that must be a full hit again.
  int burst_reprepared = 0;
  int burst_from_cache = 0;
  int recovery_reprepared = 0;
  for (int b = 0; b < kBursts; ++b) {
    std::string update = StrFormat(
        "UPDATE title SET production_year = %d WHERE id < %d", 1900 + b,
        20 * (b + 1));
    Status st = db.Execute(update);
    if (!st.ok()) {
      std::fprintf(stderr, "UPDATE failed: %s\n", st.ToString().c_str());
      return 1;
    }
    int r = 0;
    int c = 0;
    std::string fp;
    if (!execute(&r, &c, &fp)) return 1;
    burst_reprepared += r;
    burst_from_cache += c;
    // Equivalence oracle: the prepared result after the burst must match
    // the literal query on the mutated data.
    auto literal = db.Query(LiteralSql("kw_1", 1950), opts);
    if (!literal.ok() ||
        ResultFingerprint(literal.value().result) != fp) {
      std::fprintf(stderr, "FAIL: burst %d prepared/literal mismatch\n", b);
      return 1;
    }
    if (!execute(&r, nullptr, nullptr)) return 1;
    recovery_reprepared += r;
  }
  const double reprepared_per_burst =
      static_cast<double>(burst_reprepared) / kBursts;
  if (burst_reprepared != kBursts) {
    std::fprintf(stderr,
                 "FAIL: %d rebuilds across %d single-table bursts "
                 "(expected %d: rebuilds proportional to churn)\n",
                 burst_reprepared, kBursts, kBursts);
    return 1;
  }
  if (burst_from_cache != 2 * kBursts) {
    std::fprintf(stderr,
                 "FAIL: %d cache hits across bursts (expected %d: the "
                 "untouched tables stay cached)\n",
                 burst_from_cache, 2 * kBursts);
    return 1;
  }
  if (recovery_reprepared != 0) {
    std::fprintf(stderr,
                 "FAIL: %d rebuilds after bursts settled (expected 0: hit "
                 "rate recovers immediately)\n",
                 recovery_reprepared);
    return 1;
  }

  // ---- Phase 3: single-row writes that keep filter membership: two
  // members stay past the year filter, and kind_id is neither filtered nor
  // indexed. Each next execution must revalidate title's artifact.
  constexpr int kWrites = 6;
  int64_t members[2] = {-1, -1};
  {
    auto out = db.Query(
        "SELECT t.id FROM title t WHERE t.production_year > 1990 "
        "ORDER BY t.id LIMIT 2",
        opts);
    if (!out.ok() || out.value().result.rows.size() != 2) {
      std::fprintf(stderr, "FAIL: no filtered titles to update\n");
      return 1;
    }
    for (int i = 0; i < 2; ++i) {
      members[i] = out.value().result.rows[static_cast<size_t>(i)][0].AsInt();
    }
  }
  const uint64_t revalidations_before =
      db.prepared_cache()->stats().table_revalidations;
  int single_row_reprepared = 0;
  for (int w = 0; w < kWrites; ++w) {
    const std::string write =
        w < 2 ? StrFormat("UPDATE title SET production_year = %d WHERE id = "
                          "%lld",
                          2001 + w, static_cast<long long>(members[w]))
              : StrFormat("UPDATE title SET kind_id = %d WHERE id = %d", w,
                          100 * w);
    Status st = db.Execute(write);
    if (!st.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", write.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    int r = 0;
    std::string fp;
    if (!execute(&r, nullptr, &fp)) return 1;
    single_row_reprepared += r;
    auto literal = db.Query(LiteralSql("kw_1", 1950), opts);
    if (!literal.ok() || ResultFingerprint(literal.value().result) != fp) {
      std::fprintf(stderr, "FAIL: write %d prepared/literal mismatch\n", w);
      return 1;
    }
  }
  const double revalidated_per_write =
      static_cast<double>(db.prepared_cache()->stats().table_revalidations -
                          revalidations_before) /
      kWrites;
  if (revalidated_per_write != 1.0 || single_row_reprepared != 0) {
    std::fprintf(stderr,
                 "FAIL: %.2f revalidations and %d rebuilds per write "
                 "(expected 1.00 and 0: membership-keeping writes "
                 "revalidate)\n",
                 revalidated_per_write, single_row_reprepared);
    return 1;
  }

  // ---- Phase 4: WAL-on vs WAL-off — identical workload, identical costs.
  uint64_t mem_cost = 0;
  std::vector<std::string> mem_fp;
  {
    Database mem_db;
    if (!GenerateJob(&mem_db, spec).ok()) {
      std::fprintf(stderr, "JOB generation failed\n");
      return 1;
    }
    if (!RunWorkload(&mem_db, &mem_cost, &mem_fp)) return 1;
  }

  uint64_t wal_cost = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  std::vector<std::string> wal_fp;
  const std::string dir = StrFormat("/tmp/skinner_bench_mutation_%d",
                                    static_cast<int>(::getpid()));
  {
    auto opened = Database::Open(dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "Open(%s) failed: %s\n", dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Database> wal_db = opened.MoveValue();
    if (!GenerateJob(wal_db.get(), spec).ok()) {
      std::fprintf(stderr, "JOB generation failed\n");
      return 1;
    }
    if (!RunWorkload(wal_db.get(), &wal_cost, &wal_fp)) return 1;
    wal_appends = wal_db->wal_stats().wal_appends;
    wal_bytes = wal_db->wal_stats().wal_bytes;
  }
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/checkpoint.skdb").c_str());
  ::rmdir(dir.c_str());

  if (mem_fp != wal_fp) {
    std::fprintf(stderr, "FAIL: WAL-on results differ from WAL-off\n");
    return 1;
  }
  if (wal_appends == 0) {
    std::fprintf(stderr, "FAIL: durable workload logged no WAL records\n");
    return 1;
  }
  const double wal_cost_ratio = static_cast<double>(wal_cost) /
                                static_cast<double>(std::max<uint64_t>(mem_cost, 1));
  if (wal_cost_ratio > 1.10 || wal_cost_ratio < 0.90) {
    std::fprintf(stderr,
                 "FAIL: WAL-on/WAL-off query cost ratio %.3f outside "
                 "[0.90, 1.10]\n",
                 wal_cost_ratio);
    return 1;
  }

  TablePrinter table({"Phase", "Rebuilt", "From cache", "Check"});
  table.AddRow({"steady state (3 execs)", std::to_string(steady_reprepared),
                "9", "== 0 rebuilds"});
  table.AddRow({StrFormat("%d single-table bursts", kBursts),
                std::to_string(burst_reprepared),
                std::to_string(burst_from_cache), "1 rebuild per burst"});
  table.AddRow({"post-burst (5 execs)", std::to_string(recovery_reprepared),
                "15", "hit rate recovered"});
  table.AddRow({StrFormat("%d single-row writes", kWrites),
                std::to_string(single_row_reprepared),
                std::to_string(3 * kWrites), "1 revalidation per write"});
  table.Print();
  std::printf(
      "WAL-on workload: %llu appends, %llu bytes logged; query cost ratio "
      "vs in-memory %.3f.\n",
      static_cast<unsigned long long>(wal_appends),
      static_cast<unsigned long long>(wal_bytes), wal_cost_ratio);

  std::printf("RESULT bench_mutation steady_reprepared=%d "
              "reprepared_per_burst=%.2f recovery_reprepared=%d\n",
              steady_reprepared, reprepared_per_burst, recovery_reprepared);
  std::printf("RESULT bench_mutation revalidated_per_write=%.2f\n",
              revalidated_per_write);
  std::printf("RESULT bench_mutation wal_cost_ratio=%.3f wal_appends=%llu "
              "wal_bytes=%llu\n",
              wal_cost_ratio, static_cast<unsigned long long>(wal_appends),
              static_cast<unsigned long long>(wal_bytes));
  return 0;
}
