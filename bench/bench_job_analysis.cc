// Reproduces paper Figure 6: where do Skinner-C's speedups over the
// materializing (MonetDB-like) engine come from?
//  (a) cumulative fraction of total execution time spent in the top-k most
//      expensive queries, per engine;
//  (b) per-query speedup of Skinner-C over the baseline, against the
//      baseline's own cost for that query.
//
// Paper shape: the baseline spends most time in a couple of catastrophic
// queries; Skinner-C's biggest speedups are exactly on those, while the
// baseline is (mildly) faster on the many cheap queries.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "benchgen/job.h"
#include "benchgen/runner.h"
#include "common/str_util.h"

using namespace skinner;
using namespace skinner::bench;

int main() {
  std::printf("bench_job_analysis: paper Figure 6\n");
  Database db;
  JobSpec spec;
  spec.num_titles = 5000;
  if (!GenerateJob(&db, spec).ok()) return 1;
  JobWorkload w = JobQueries();
  constexpr uint64_t kDeadline = 30'000'000;

  std::vector<uint64_t> skinner_cost(w.queries.size());
  std::vector<uint64_t> block_cost(w.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    ExecOptions s;
    s.engine = EngineKind::kSkinnerC;
    s.deadline = kDeadline;
    skinner_cost[i] = RunQuery(&db, w.names[i], w.queries[i], s).cost;
    ExecOptions b;
    b.engine = EngineKind::kBlock;
    b.deadline = kDeadline;
    block_cost[i] = RunQuery(&db, w.names[i], w.queries[i], b).cost;
  }

  // (a) cumulative share of total time in the top-k queries.
  auto cumulative = [](std::vector<uint64_t> costs) {
    std::sort(costs.begin(), costs.end(), std::greater<>());
    double total = 0;
    for (uint64_t c : costs) total += static_cast<double>(c);
    std::vector<double> cum;
    double acc = 0;
    for (uint64_t c : costs) {
      acc += static_cast<double>(c);
      cum.push_back(acc / total);
    }
    return cum;
  };
  std::vector<double> cum_skinner = cumulative(skinner_cost);
  std::vector<double> cum_block = cumulative(block_cost);
  std::printf("\n(a) cumulative runtime share of top-k queries\n");
  TablePrinter ta({"Top-k", "Skinner-C", "Block (MDB-like)"});
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{10},
                   size_t{20}, w.queries.size()}) {
    if (k > w.queries.size()) continue;
    ta.AddRow({std::to_string(k), StrFormat("%.2f", cum_skinner[k - 1]),
               StrFormat("%.2f", cum_block[k - 1])});
  }
  ta.Print();

  // (b) per-query speedup vs baseline cost.
  std::printf("\n(b) Skinner-C speedup vs baseline cost per query\n");
  TablePrinter tb({"Query", "Block Cost", "Skinner Cost", "Speedup"});
  std::vector<size_t> order(w.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return block_cost[a] > block_cost[b];
  });
  int faster_baseline = 0;
  std::vector<double> speedups;  // in descending baseline cost
  for (size_t i : order) {
    double speedup = static_cast<double>(block_cost[i]) /
                     std::max<double>(1.0, static_cast<double>(skinner_cost[i]));
    if (speedup < 1.0) ++faster_baseline;
    speedups.push_back(speedup);
    tb.AddRow({w.names[i], FormatCount(block_cost[i]),
               FormatCount(skinner_cost[i]), StrFormat("%.2fx", speedup)});
  }
  tb.Print();
  // The paper's shape, computed from table (b): Skinner-C's speedups
  // concentrate on the baseline's most expensive queries.
  constexpr size_t kTop = 5;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  const size_t top = std::min(kTop, speedups.size());
  const double top_median =
      median(std::vector<double>(speedups.begin(), speedups.begin() + top));
  const double all_median = median(speedups);
  std::printf("\nBlock (MDB-like) is faster on %d of %zu queries.\n",
              faster_baseline, speedups.size());
  PrintShapeCheck("Figure 6",
                  StrFormat("Skinner-C's median speedup on the %zu most "
                            "expensive baseline queries should exceed its "
                            "median over all queries",
                            top),
                  StrFormat("top-%zu %.2fx, all %.2fx", top, top_median,
                            all_median),
                  top_median > all_median);
  return 0;
}
