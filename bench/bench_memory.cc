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

#include <algorithm>
#include <cstdio>

#include "benchgen/job.h"
#include "benchgen/runner.h"
#include "common/str_util.h"

using namespace skinner;
using namespace skinner::bench;

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
  return 0;
}
