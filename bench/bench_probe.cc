// Microbenchmark for the HashIndex probe path (paper Section 4.5: the
// execution core must be "as fast as the hardware allows" for learning
// overhead to stay negligible):
//  (a) the direct-address layout against the Swiss table: the same ids
//      indexed once as dense keys (direct layout) and once scrambled by
//      HashMix64 (Swiss layout), equal key and posting counts, both probed
//      through Find() — the join cursor's probe — with the same id stream;
//  (b) adaptive chunk splitting on a Zipf-skewed parallel query: the
//      number of publication-board splits the skew triggers.
//
// Both layouts must produce the identical checksum: the layout is never
// allowed to be observable in results, only in wall time.
//
// CI-gated via RESULT metrics (bench/compare_benchmarks.py):
//   - dense_vs_hash_ratio >= 1x: the direct layout is a fast path and must
//     keep measuring faster than the Swiss table it replaces (exit code),
//     gated against >25% regressions;
//   - chunk_splits >= 1 (exit code): the skewed query must split;
//   - probes/sec values are recorded for trajectory tracking (wall-clock,
//     not gated).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "api/database.h"
#include "benchgen/runner.h"
#include "common/hash_util.h"
#include "common/str_util.h"
#include "exec/prepared_query.h"

using namespace skinner;
using namespace skinner::bench;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sum over the probe results that both layouts must reproduce exactly:
/// posting counts plus the first posting of each non-empty run (reading
/// the run head makes the arena access part of the measured probe, as it
/// is in the join's descent).
uint64_t Checksum(const HashIndex::Postings& p) {
  return p.count + (p.empty() ? 0 : static_cast<uint64_t>(p.data[0]) + 1);
}

struct ProbeRate {
  double mprobes_per_sec = 0;
  uint64_t checksum = 0;
};

/// Find() over an array of keys, `rounds` passes.
ProbeRate MeasureFind(const HashIndex& idx, const std::vector<uint64_t>& probes,
                      int rounds) {
  ProbeRate out;
  double t0 = NowSeconds();
  for (int r = 0; r < rounds; ++r) {
    for (uint64_t key : probes) out.checksum += Checksum(idx.Find(key));
  }
  double secs = NowSeconds() - t0;
  out.mprobes_per_sec =
      static_cast<double>(probes.size()) * rounds / secs / 1e6;
  return out;
}

/// Median probe rate of `runs` alternating Find passes over two indexes
/// (alternation spreads host drift over both), with each index's checksum
/// from its last pass.
std::pair<ProbeRate, ProbeRate> MeasureFindPair(
    const HashIndex& a, const std::vector<uint64_t>& probes_a,
    const HashIndex& b, const std::vector<uint64_t>& probes_b, int runs,
    int rounds) {
  std::vector<double> rate_a;
  std::vector<double> rate_b;
  ProbeRate out_a;
  ProbeRate out_b;
  for (int r = 0; r < runs; ++r) {
    out_a = MeasureFind(a, probes_a, rounds);
    out_b = MeasureFind(b, probes_b, rounds);
    rate_a.push_back(out_a.mprobes_per_sec);
    rate_b.push_back(out_b.mprobes_per_sec);
  }
  std::sort(rate_a.begin(), rate_a.end());
  std::sort(rate_b.begin(), rate_b.end());
  out_a.mprobes_per_sec = rate_a[rate_a.size() / 2];
  out_b.mprobes_per_sec = rate_b[rate_b.size() / 2];
  return {out_a, out_b};
}

/// Zipf-skewed chain tables (hot keys clustered at low positions), the
/// same shape as bench_parallel_join's skewed workload, sized down to a
/// quick split-counting scenario.
void BuildZipfDb(Database* db, int m, int64_t rows, int64_t domain, double s,
                 int64_t max_fanout) {
  std::vector<double> weight(static_cast<size_t>(domain));
  double z = 0;
  for (int64_t k = 0; k < domain; ++k) {
    weight[static_cast<size_t>(k)] =
        1.0 / std::pow(static_cast<double>(k + 1), s);
    z += weight[static_cast<size_t>(k)];
  }
  for (int t = 0; t < m; ++t) {
    std::string name = "z" + std::to_string(t);
    db->Execute("CREATE TABLE " + name + " (k INT, v INT)");
    Table* table = db->catalog()->FindTable(name);
    int64_t r = 0;
    for (int64_t k = 0; k < domain && r < rows; ++k) {
      int64_t fanout = std::min(
          max_fanout, std::max<int64_t>(1, static_cast<int64_t>(
                                               rows * weight[k] / z)));
      for (int64_t c = 0; c < fanout && r < rows; ++c, ++r) {
        table->mutable_column(0)->AppendInt(k);
        table->mutable_column(1)->AppendInt(r);
        table->CommitRow();
      }
    }
    while (r < rows) {
      table->mutable_column(0)->AppendInt(domain + r);
      table->mutable_column(1)->AppendInt(r);
      table->CommitRow();
      ++r;
    }
  }
}

}  // namespace

int main() {
  std::printf("bench_probe: HashIndex probe layouts\n");

  // (a) Direct-address vs Swiss layout: ids 0..kKeys-1, one posting each,
  // indexed as themselves (dense) and as HashMix64(id) (scrambled), both
  // built from an int64 column over identity rows and probed with the same
  // uniform id stream. 1M ids make a ~38 MiB Swiss table straddling the
  // LLC, so probes are cache-cold. (Much larger tables become page-walk
  // bound and measure the TLB, not the probe path.)
  constexpr int64_t kKeys = 1'000'000;
  constexpr size_t kProbes = 2'000'000;
  constexpr int kRounds = 3;
  Column dense_keys(DataType::kInt64);
  Column hash_keys(DataType::kInt64);
  std::vector<int32_t> rows(static_cast<size_t>(kKeys));
  for (int64_t i = 0; i < kKeys; ++i) {
    dense_keys.AppendInt(i);
    hash_keys.AppendInt(
        static_cast<int64_t>(HashMix64(static_cast<uint64_t>(i))));
    rows[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  const HashIndex dense_idx(JoinKeyView(dense_keys), rows);
  const HashIndex hash_idx(JoinKeyView(hash_keys), rows);
  std::mt19937_64 rng(42);
  std::vector<uint64_t> dense_probes(kProbes);
  std::vector<uint64_t> hash_probes(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    dense_probes[i] = rng() % kKeys;
    hash_probes[i] = HashMix64(dense_probes[i]);
  }
  std::printf("dense index: %s, %.1f MiB; scrambled index: %s, %zu slots, "
              "%.1f MiB\n",
              dense_idx.direct() ? "direct" : "swiss",
              static_cast<double>(dense_idx.bytes()) / (1 << 20),
              hash_idx.direct() ? "direct" : "swiss", hash_idx.num_slots(),
              static_cast<double>(hash_idx.bytes()) / (1 << 20));
  MeasureFind(dense_idx, dense_probes, 1);  // warm the page tables
  MeasureFind(hash_idx, hash_probes, 1);
  const auto [dense, hashed] = MeasureFindPair(
      dense_idx, dense_probes, hash_idx, hash_probes, /*runs=*/5, kRounds);
  const bool layouts_ok = dense_idx.direct() && !hash_idx.direct() &&
                          dense.checksum == hashed.checksum;
  const double dense_ratio = dense.mprobes_per_sec / hashed.mprobes_per_sec;
  TablePrinter layouts({"Layout", "Find Mprobes/s", "vs Swiss"});
  layouts.AddRow({"direct (dense ids)", StrFormat("%.2f", dense.mprobes_per_sec),
                  StrFormat("%.2fx", dense_ratio)});
  layouts.AddRow({"Swiss (HashMix64 ids)",
                  StrFormat("%.2f", hashed.mprobes_per_sec), "1.00x"});
  layouts.Print();
  std::printf("checksums: direct=%llu swiss=%llu %s\n",
              static_cast<unsigned long long>(dense.checksum),
              static_cast<unsigned long long>(hashed.checksum),
              layouts_ok ? "(identical)" : "(MISMATCH or wrong layout)");

  // (b) Adaptive chunk splitting on a skewed 4-worker parallel query.
  Database db;
  BuildZipfDb(&db, /*m=*/4, /*rows=*/400, /*domain=*/150, /*s=*/1.1,
              /*max_fanout=*/10);
  ExecOptions opts;
  opts.engine = EngineKind::kSkinnerC;
  opts.skinner_threads = 4;
  auto out = db.Query(
      "SELECT COUNT(*) FROM z0, z1, z2, z3 "
      "WHERE z0.k = z1.k AND z1.k = z2.k AND z2.k = z3.k",
      opts);
  if (!out.ok()) {
    std::printf("ERROR: %s\n", out.status().ToString().c_str());
    return 1;
  }
  const uint64_t chunk_splits = out.value().stats.chunk_splits;
  std::printf("skewed 4-worker query: cost=%llu chunk_splits=%llu\n",
              static_cast<unsigned long long>(out.value().stats.total_cost),
              static_cast<unsigned long long>(chunk_splits));

  std::printf("RESULT bench_probe direct_mprobes_per_sec=%.2f "
              "swiss_mprobes_per_sec=%.2f dense_vs_hash_ratio=%.2f\n",
              dense.mprobes_per_sec, hashed.mprobes_per_sec, dense_ratio);
  std::printf("RESULT bench_probe chunk_splits=%llu\n",
              static_cast<unsigned long long>(chunk_splits));

  bool ok = layouts_ok && dense_ratio >= 1.0 && chunk_splits >= 1;
  if (!ok) std::printf("FAILED acceptance check\n");
  return ok ? 0 : 1;
}
