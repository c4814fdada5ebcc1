// Reproduces paper Figure 8: memory consumption of Skinner-C's auxiliary
// structures as a function of query size (number of joined tables):
//  (a) UCT search tree nodes, (b) progress tracker nodes,
//  (c) result tuple-index set size, (d) combined bytes.
// Skinner-C's workers keep re-emitted tuples until the export dedup, so
// the table also prints emitted tuples next to the distinct result.
//
// Paper shape: all grow with query size; the result-index set dominates,
// followed by the progress tracker and the UCT tree; total memory stays
// moderate.
//
// Then the result set's export: ResultSet::MergeSortedUnique over 200k
// emitted tuples in the query pipeline's packed layout, against
// std::sort + std::unique over the same tuples as flat int32 rows, at
// widths 4/8/12. Each figure is the median of 5 alternating runs; the two
// outputs must match tuple for tuple (checksums), and the bench exits
// nonzero when the export is not faster than the plain sort at some width
// (export_speedup_vs_sort below 1.0).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <vector>

#include "benchgen/job.h"
#include "benchgen/runner.h"
#include "common/hash_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/result_set.h"

using namespace skinner;
using namespace skinner::bench;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct ExportTiming {
  double export_ms = 0;
  double sort_ms = 0;
  bool checksums_match = false;
};

/// Times the export against std::sort + std::unique at width W: 200k
/// tuples with positions uniform in [0, 2^17) (every table of cardinality
/// 2^17), about 3% of them re-emits, spread over four worker buffers.
template <size_t W>
ExportTiming TimeExport() {
  using Row = std::array<int32_t, W>;
  constexpr size_t kTuples = 200000;
  constexpr size_t kWorkers = 4;
  constexpr int kRuns = 5;
  Rng rng(17 + W);
  const ResultSet layout(std::vector<int64_t>(W, int64_t{1} << 17));
  std::vector<ResultSet> parts(kWorkers, layout);
  std::vector<Row> emitted;
  emitted.reserve(kTuples);
  Row t{};
  for (size_t i = 0; i < kTuples; ++i) {
    if (!emitted.empty() && rng.Uniform(100) < 3) {
      t = emitted[rng.Uniform(emitted.size())];
    } else {
      for (int32_t& p : t) p = static_cast<int32_t>(rng.Uniform(1 << 17));
    }
    emitted.push_back(t);
    parts[i % kWorkers].Append(t.data());
  }
  std::vector<const ResultSet*> views;
  for (const ResultSet& p : parts) views.push_back(&p);

  std::vector<double> export_ms;
  std::vector<double> sort_ms;
  uint64_t export_sum = 0;
  uint64_t sort_sum = 0;
  for (int run = 0; run < kRuns; ++run) {
    auto start = std::chrono::steady_clock::now();
    ResultSet out = layout.EmptyLike();
    ResultSet::MergeSortedUnique(views, &out);
    export_ms.push_back(MsSince(start));
    export_sum = out.size();
    out.ForEach([&](const int32_t* row) {
      for (size_t c = 0; c < W; ++c) {
        HashCombine(&export_sum, static_cast<uint32_t>(row[c]));
      }
    });

    std::vector<Row> rows = emitted;
    start = std::chrono::steady_clock::now();
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    sort_ms.push_back(MsSince(start));
    sort_sum = rows.size();
    for (const Row& row : rows) {
      for (size_t c = 0; c < W; ++c) {
        HashCombine(&sort_sum, static_cast<uint32_t>(row[c]));
      }
    }
  }
  ExportTiming timing;
  timing.export_ms = Median(export_ms);
  timing.sort_ms = Median(sort_ms);
  timing.checksums_match = export_sum == sort_sum;
  return timing;
}

}  // namespace

int main() {
  std::printf("bench_memory: paper Figure 8\n");
  Database db;
  JobSpec spec;
  spec.num_titles = 2500;
  if (!GenerateJob(&db, spec).ok()) return 1;
  JobWorkload w = JobQueries();

  TablePrinter table({"Query", "#Tables", "UCT Nodes", "Progress Nodes",
                      "Emitted", "Distinct", "Aux Bytes"});
  uint64_t total_cost = 0;
  uint64_t emitted_tuples = 0;
  uint64_t distinct_tuples = 0;
  size_t max_aux_bytes = 0;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    ExecOptions opts;
    opts.engine = EngineKind::kSkinnerC;
    opts.deadline = 30'000'000;
    auto out = db.Query(w.queries[i], opts);
    if (!out.ok()) continue;
    const ExecutionStats& s = out.value().stats;
    total_cost += s.total_cost;
    emitted_tuples += s.emitted_tuples;
    distinct_tuples += s.join_result_tuples;
    max_aux_bytes = std::max(max_aux_bytes, s.auxiliary_bytes);
    auto bound = db.Bind(w.queries[i]);
    int tables = bound.ok() ? bound.value()->num_tables() : 0;
    table.AddRow({w.names[i], std::to_string(tables),
                  FormatCount(s.uct_nodes), FormatCount(s.progress_nodes),
                  FormatCount(s.emitted_tuples),
                  FormatCount(s.join_result_tuples),
                  FormatCount(s.auxiliary_bytes)});
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: result tuple indices dominate memory,\n"
      "followed by the progress tracker, then the UCT tree; all grow with\n"
      "the number of joined tables.\n");
  std::printf("RESULT bench_memory skinner_c_total_cost=%llu "
              "max_aux_bytes=%llu emitted_tuples=%llu distinct_tuples=%llu\n",
              static_cast<unsigned long long>(total_cost),
              static_cast<unsigned long long>(max_aux_bytes),
              static_cast<unsigned long long>(emitted_tuples),
              static_cast<unsigned long long>(distinct_tuples));

  std::printf("\nResult export: MergeSortedUnique vs std::sort + unique, "
              "200k emitted tuples (median of 5 alternating runs)\n");
  TablePrinter exports({"Width", "Export ms", "Sort+unique ms", "Speedup",
                        "Checksums"});
  const ExportTiming timings[] = {TimeExport<4>(), TimeExport<8>(),
                                  TimeExport<12>()};
  const int widths[] = {4, 8, 12};
  double min_speedup = 0;
  bool all_match = true;
  for (size_t i = 0; i < 3; ++i) {
    const ExportTiming& t = timings[i];
    const double speedup = t.sort_ms / t.export_ms;
    min_speedup = i == 0 ? speedup : std::min(min_speedup, speedup);
    all_match = all_match && t.checksums_match;
    exports.AddRow({std::to_string(widths[i]), StrFormat("%.2f", t.export_ms),
                    StrFormat("%.2f", t.sort_ms), StrFormat("%.2f", speedup),
                    t.checksums_match ? "match" : "MISMATCH"});
  }
  exports.Print();
  std::printf("RESULT bench_memory export_speedup_vs_sort=%.3f\n",
              min_speedup);
  if (!all_match) {
    std::printf("FAIL: the export and std::sort + unique disagree\n");
    return 1;
  }
  if (min_speedup < 1.0) {
    std::printf("FAIL: export_speedup_vs_sort %.3f is below the 1.0 floor\n",
                min_speedup);
    return 1;
  }
  return 0;
}
