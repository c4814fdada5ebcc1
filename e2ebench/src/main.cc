// skinner_e2e: the repository's end-to-end benchmark driver.
//
//   skinner_e2e --workload job|tpch|serve-mixed --seed N --seconds S
//               --trace 0|1 --work-dir DIR [--trace-out FILE] [--quick]
//               [--plant-bad-fingerprint]
//
// Prints human-readable lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 0 only when every correctness check passed.
// e2ebench/run.py builds this binary and is the supported entry point.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace e2e {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"throughput_qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"virtual_cost", "units"},
      {"write_p50_ms", "ms"},
      {"write_tail_ms", "ms"},
      {"recovery_s", "s"},
      {"sql.parse_ms", "ms"},
      {"sql.bind_ms", "ms"},
      {"exec.prepare_ms", "ms"},
      {"exec.preprocess_cost", "units"},
      {"exec.ns_per_cost", "ns/unit"},
      {"exec.prepare_speedup_4_over_1", "x"},
      {"exec.cache_hit_ratio", "ratio"},
      {"exec.cache_evictions", "count"},
      {"exec.cache_bytes_used", "B"},
      {"exec.tables_reprepared", "tables/read"},
      {"exec.cache_inflight_waits", "count"},
      {"skinner.execute_ms", "ms"},
      {"skinner.join_cost", "units"},
      {"skinner.ns_per_cost", "ns/unit"},
      {"skinner.execute_speedup_4_over_1", "x"},
      {"skinner.slices", "count/read"},
      {"skinner.intermediate_tuples", "tuples/read"},
      {"skinner.uct_nodes", "nodes/read"},
      {"skinner.chunk_splits", "count/read"},
      {"skinner.order_regret", "x"},
      {"skinner.aux_bytes", "B"},
      {"post.postprocess_ms", "ms"},
      {"post.result_rows", "rows/read"},
      {"txn.dml_ms", "ms"},
      {"txn.wal_bytes_per_write", "B/write"},
      {"txn.wal_appends", "count"},
      {"txn.checkpoint_ms", "ms"},
      {"txn.replayed_records", "count"},
      {"server.exec_p50_ms", "ms"},
      {"server.read_wait_ms", "ms"},
      {"server.write_wait_ms", "ms"},
      {"server.queries_shed", "count"},
      {"server.cache_publish_throttled", "count"},
      {"scheduler.mean_queue_depth", "jobs"},
      {"scheduler.peak_queue_depth", "jobs"},
      {"scheduler.lease_capped", "count"},
      {"scheduler.pf_dispatched", "count"},
      {"trace.overhead_throughput_pct", "%"},
      {"trace.overhead_p50_pct", "%"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

void SetMetric(Report* report, const std::string& name, double value) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& m : *list) {
      if (name == m.name) {
        report->Set(name, value, m.unit);
        return;
      }
    }
  }
  std::fprintf(stderr, "internal error: metric %s is not catalogued\n",
               name.c_str());
  std::abort();
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: skinner_e2e --workload job|tpch|serve-mixed --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--quick] [--plant-bad-fingerprint]\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opts;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      opts.work_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--plant-bad-fingerprint") {
      opts.plant_bad_fingerprint = true;
    } else {
      return Usage();
    }
  }
  if (opts.work_dir.empty() || opts.seconds < 0 ||
      (opts.workload != "job" && opts.workload != "tpch" &&
       opts.workload != "serve-mixed")) {
    return Usage();
  }

  Tracer tracer(opts.trace);
  Report report;
  if (opts.trace) {
    // A layer the workload does not exercise reads 0.
    for (const MetricDef& m : PerLayerMetrics()) SetMetric(&report, m.name, 0);
  }
  Note("seed %llu", static_cast<unsigned long long>(opts.seed));
  if (opts.workload == "serve-mixed") {
    RunServeWorkload(opts, &tracer, &report);
  } else {
    RunQueryWorkload(opts, &tracer, &report);
  }
  if (opts.trace && !trace_out.empty()) {
    if (tracer.WriteJsonLines(trace_out)) {
      Note("spans written to %s", trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }

  std::vector<std::string> names;
  for (const MetricDef& m : opts.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    names.push_back(m.name);
  }
  for (const std::string& missing : report.Keep(names)) {
    report.Fail("metric " + missing + " was not measured");
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
