// Microbenchmark for the batched HashIndex probe path (paper Section 4.5:
// the execution core must be "as fast as the hardware allows" for learning
// overhead to stay negligible):
//  (a) single-key Find() vs FindBatch() probes/sec on a cache-cold index
//      over uniform random keys. The Find() baseline models the join step
//      loop's access pattern — each probe key is produced from the
//      previous probe's postings, a dependent chain — while FindBatch
//      probes a candidate window whose keys are known up front, winning on
//      memory-level parallelism (32 hashed probes prefetched ahead of
//      resolution). An independent-key Find() loop (out-of-order execution
//      overlapping probes on its own) is also reported for transparency;
//  (b) adaptive chunk splitting on a Zipf-skewed parallel query: the
//      number of publication-board splits the skew triggers;
//  (c) the direct-address layout against the Swiss table: the same ids
//      staged once as dense keys (direct layout) and once scrambled by
//      HashMix64 (Swiss layout), equal key and posting counts, both probed
//      through FindBatch with the same id stream.
//
// Every path must produce the identical checksum: batching and the layout
// are never allowed to be observable in results, only in wall time.
//
// CI-gated via RESULT metrics (bench/compare_benchmarks.py):
//   - batch_vs_scalar_ratio >= 2x is the acceptance floor (also enforced
//     by the exit code), gated against >25% regressions;
//   - dense_vs_hash_batch_ratio >= 1x: the direct layout is a fast path
//     and must keep measuring faster than the Swiss table it replaces
//     (exit code), gated against >25% regressions;
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

/// Sum over the probe results that every probe path must reproduce
/// exactly: posting counts plus the first posting of each non-empty run
/// (reading the run head makes the arena access part of the measured
/// dependency chain, as it is in the join's descent).
uint64_t Checksum(const HashIndex::Postings& p) {
  return p.count + (p.empty() ? 0 : static_cast<uint64_t>(p.data[0]) + 1);
}

struct ProbeRate {
  double mprobes_per_sec = 0;
  uint64_t checksum = 0;
};

/// Scalar Find() the way the join's step loop issues it: each probe's key
/// is only known after the previous probe's postings were read (the
/// descent selects the next candidate row from the run it just fetched),
/// so consecutive probes form a dependent chain the CPU cannot overlap.
/// `dep` is always zero, but it flows from the previous checksum through
/// an opaque AND into the next key, reproducing that dependence without
/// changing any key. This is the baseline FindBatch exists to beat: the
/// batch path probes a whole candidate window whose keys are known up
/// front, with no such chain.
ProbeRate MeasureScalarChained(const HashIndex& idx,
                               const std::vector<uint64_t>& probes,
                               int rounds) {
  ProbeRate out;
  uint64_t dep = 0;
  double t0 = NowSeconds();
  for (int r = 0; r < rounds; ++r) {
    for (uint64_t key : probes) {
      out.checksum += Checksum(idx.Find(key ^ dep));
      dep = out.checksum;
#if defined(__x86_64__)
      // dep := 0, but only after `out.checksum` (and thus the probe's
      // postings read) resolves; `and $0` is not a dependency-breaking
      // idiom, so the address of the next probe waits on this.
      asm volatile("andq $0, %0" : "+r"(dep));
#else
      dep &= 0;
#endif
    }
  }
  double secs = NowSeconds() - t0;
  out.mprobes_per_sec =
      static_cast<double>(probes.size()) * rounds / secs / 1e6;
  return out;
}

/// Scalar Find() over an array of pre-known keys: iterations are
/// independent, so out-of-order execution already overlaps several probes
/// (an optimistic upper bound the step loop never reaches; reported for
/// transparency).
ProbeRate MeasureScalarIndependent(const HashIndex& idx,
                                   const std::vector<uint64_t>& probes,
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

ProbeRate MeasureBatch(const HashIndex& idx,
                       const std::vector<uint64_t>& probes, int rounds) {
  constexpr size_t kChunk = 1024;
  std::vector<HashIndex::Postings> out_buf(kChunk);
  ProbeRate out;
  double t0 = NowSeconds();
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < probes.size(); i += kChunk) {
      size_t n = std::min(kChunk, probes.size() - i);
      idx.FindBatch(probes.data() + i, n, out_buf.data());
      for (size_t j = 0; j < n; ++j) out.checksum += Checksum(out_buf[j]);
    }
  }
  double secs = NowSeconds() - t0;
  out.mprobes_per_sec =
      static_cast<double>(probes.size()) * rounds / secs / 1e6;
  return out;
}

/// Median probe rate of `runs` alternating FindBatch passes over two
/// indexes (alternation spreads host drift over both), with each index's
/// checksum from its last pass.
std::pair<ProbeRate, ProbeRate> MeasureBatchPair(
    const HashIndex& a, const std::vector<uint64_t>& probes_a,
    const HashIndex& b, const std::vector<uint64_t>& probes_b, int runs,
    int rounds) {
  std::vector<double> rate_a;
  std::vector<double> rate_b;
  ProbeRate out_a;
  ProbeRate out_b;
  for (int r = 0; r < runs; ++r) {
    out_a = MeasureBatch(a, probes_a, rounds);
    out_b = MeasureBatch(b, probes_b, rounds);
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
  std::printf("bench_probe: batched HashIndex probe path\n");

  // (a) Cache-cold probe rates: 1M distinct keys -> a 2M-slot table
  // (~38 MiB of slots+tags+arena), straddling the LLC, probed with
  // uniform random present keys. (Much larger tables become page-walk
  // bound — three random pages per probe — which caps the scalar and
  // batch paths identically and measures the TLB, not the probe path.)
  constexpr int64_t kKeys = 1'000'000;
  constexpr size_t kProbes = 2'000'000;
  constexpr int kRounds = 3;
  HashIndex idx;
  for (int64_t i = 0; i < kKeys; ++i) {
    idx.Add(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull,
            static_cast<int32_t>(i % 1'000'000));
  }
  idx.Build();
  std::printf("index: %zu keys, %zu slots, %.1f MiB\n", idx.num_keys(),
              idx.num_slots(), static_cast<double>(idx.bytes()) / (1 << 20));

  std::mt19937_64 rng(42);
  std::vector<uint64_t> probes(kProbes);
  for (auto& k : probes) {
    k = static_cast<uint64_t>(rng() % kKeys) * 0x9E3779B97F4A7C15ull;
  }

  // Warm the page tables (not the caches: the working set does not fit).
  MeasureScalarIndependent(idx, probes, 1);

  ProbeRate scalar = MeasureScalarChained(idx, probes, kRounds);
  ProbeRate scalar_indep = MeasureScalarIndependent(idx, probes, kRounds);
  ProbeRate batch = MeasureBatch(idx, probes, kRounds);

  TablePrinter rates({"Path", "Mprobes/s", "vs chained Find"});
  auto row = [&](const char* name, const ProbeRate& r) {
    rates.AddRow({name, StrFormat("%.2f", r.mprobes_per_sec),
                  StrFormat("%.2fx",
                            r.mprobes_per_sec / scalar.mprobes_per_sec)});
  };
  row("Find (step-loop chain)", scalar);
  row("Find (independent keys)", scalar_indep);
  row("FindBatch", batch);
  rates.Print();

  bool checksums_ok = scalar.checksum == batch.checksum &&
                      scalar.checksum == scalar_indep.checksum;
  std::printf("checksums: find=%llu batch=%llu %s\n",
              static_cast<unsigned long long>(scalar.checksum),
              static_cast<unsigned long long>(batch.checksum),
              checksums_ok ? "(identical)" : "(MISMATCH)");

  double batch_ratio = batch.mprobes_per_sec / scalar.mprobes_per_sec;
  double batch_vs_independent =
      batch.mprobes_per_sec / scalar_indep.mprobes_per_sec;

  // (c) Direct-address vs Swiss layout: ids 0..kKeys-1, one posting each,
  // staged as themselves (dense) and as HashMix64(id) (scrambled), probed
  // with the same uniform id stream through the batch path.
  HashIndex dense_idx;
  HashIndex hash_idx;
  for (int64_t i = 0; i < kKeys; ++i) {
    dense_idx.Add(static_cast<uint64_t>(i), static_cast<int32_t>(i));
    hash_idx.Add(HashMix64(static_cast<uint64_t>(i)), static_cast<int32_t>(i));
  }
  dense_idx.Build();
  hash_idx.Build();
  std::vector<uint64_t> dense_probes(kProbes);
  std::vector<uint64_t> hash_probes(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    dense_probes[i] = rng() % kKeys;
    hash_probes[i] = HashMix64(dense_probes[i]);
  }
  std::printf("\ndense index: %s, %.1f MiB; scrambled index: %s, %.1f MiB\n",
              dense_idx.direct() ? "direct" : "swiss",
              static_cast<double>(dense_idx.bytes()) / (1 << 20),
              hash_idx.direct() ? "direct" : "swiss",
              static_cast<double>(hash_idx.bytes()) / (1 << 20));
  MeasureBatch(dense_idx, dense_probes, 1);  // warm the page tables
  MeasureBatch(hash_idx, hash_probes, 1);
  const auto [dense, hashed] = MeasureBatchPair(
      dense_idx, dense_probes, hash_idx, hash_probes, /*runs=*/5, kRounds);
  const bool layouts_ok = dense_idx.direct() && !hash_idx.direct() &&
                          dense.checksum == hashed.checksum;
  const double dense_ratio = dense.mprobes_per_sec / hashed.mprobes_per_sec;
  TablePrinter layouts({"Layout", "FindBatch Mprobes/s", "vs Swiss"});
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
  uint64_t chunk_splits = 0;
  uint64_t skew_cost = 0;
  auto out = db.Query(
      "SELECT COUNT(*) FROM z0, z1, z2, z3 "
      "WHERE z0.k = z1.k AND z1.k = z2.k AND z2.k = z3.k",
      opts);
  if (!out.ok()) {
    std::printf("ERROR: %s\n", out.status().ToString().c_str());
    return 1;
  }
  chunk_splits = out.value().stats.chunk_splits;
  skew_cost = out.value().stats.total_cost;
  std::printf("skewed 4-worker query: cost=%llu chunk_splits=%llu\n",
              static_cast<unsigned long long>(skew_cost),
              static_cast<unsigned long long>(chunk_splits));

  std::printf("\nbatch_vs_scalar: %.2fx (target >= 2x on uniform keys; "
              "vs independent-key loop: %.2fx)\n",
              batch_ratio, batch_vs_independent);
  std::printf("RESULT bench_probe scalar_mprobes_per_sec=%.2f "
              "scalar_independent_mprobes_per_sec=%.2f "
              "batch_mprobes_per_sec=%.2f batch_vs_scalar_ratio=%.2f\n",
              scalar.mprobes_per_sec, scalar_indep.mprobes_per_sec,
              batch.mprobes_per_sec, batch_ratio);
  std::printf("RESULT bench_probe chunk_splits=%llu\n",
              static_cast<unsigned long long>(chunk_splits));
  std::printf("RESULT bench_probe dense_vs_hash_batch_ratio=%.2f\n",
              dense_ratio);

  bool ok = checksums_ok && batch_ratio >= 2.0 && chunk_splits >= 1 &&
            layouts_ok && dense_ratio >= 1.0;
  if (!ok) std::printf("FAILED acceptance check\n");
  return ok ? 0 : 1;
}
