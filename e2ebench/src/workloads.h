// The benchmark's workloads and the metric catalogue they report into.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "harness.h"

namespace e2e {

/// One reported metric: name and unit. Every workload reports every
/// end-to-end metric, so only what every workload has is end-to-end;
/// per-layer metrics of a layer a workload does not exercise read 0 (see
/// README.md for which layer runs where).
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Sets a metric from the catalogue (the unit comes from the catalogue).
void SetMetric(Report* report, const std::string& name, double value);

/// `job` and `tpch`: one client runs a fixed list of literal queries back
/// to back through Database::Query.
void RunQueryWorkload(const Options& opts, Tracer* tracer, Report* report);

/// `serve-mixed`: four TCP clients against ServerCore + TcpServer over a
/// durable, fsync'd database, mixing prepared reads, literal reads,
/// single-row writes and checkpoints.
void RunServeWorkload(const Options& opts, Tracer* tracer, Report* report);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
