// Reproduces paper Tables 3 and 4: execute (a) the original optimizer's
// order, (b) the join order Skinner-C converged to, and (c) the optimal
// order under exact C_out, in each execution engine.
//
// Paper shape: Skinner's final orders improve every engine relative to its
// own optimizer, and land close to the true optimum.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "benchgen/job.h"
#include "benchgen/runner.h"
#include "common/str_util.h"
#include "optimizer/true_cardinality.h"

using namespace skinner;
using namespace skinner::bench;

namespace {

constexpr uint64_t kDeadline = 30'000'000;
/// "Close to the true optimum" in the paper's shape, as a cost ratio.
constexpr double kNearOptimal = 1.5;

struct OrderSource {
  const char* label;
  std::vector<std::vector<int>> orders;  // one per query
};

uint64_t RunOrders(Database* db, const JobWorkload& w, EngineKind engine,
                   const std::vector<std::vector<int>>& orders,
                   uint64_t* max_cost) {
  uint64_t total = 0;
  *max_cost = 0;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    ExecOptions opts;
    opts.engine = engine;
    opts.forced_order = orders[i];
    opts.deadline = kDeadline;
    RunResult r = RunQuery(db, w.names[i], w.queries[i], opts);
    total += r.cost;
    *max_cost = std::max(*max_cost, r.cost);
  }
  return total;
}

}  // namespace

int main() {
  std::printf("bench_order_quality: paper Tables 3 & 4 "
              "(join orders replayed across engines)\n");
  Database db;
  JobSpec spec;
  spec.num_titles = 2000;
  if (!GenerateJob(&db, spec).ok()) return 1;
  JobWorkload w = JobQueries();

  // Collect per-query orders from each source.
  OrderSource skinner_orders{"Skinner", {}};
  OrderSource optimizer_orders{"Original", {}};
  OrderSource optimal_orders{"Optimal", {}};
  uint64_t skinner_total = 0;
  uint64_t skinner_max = 0;

  for (size_t i = 0; i < w.queries.size(); ++i) {
    // Skinner-C run: learn the order (and measure Skinner's own cost).
    ExecOptions opts;
    opts.engine = EngineKind::kSkinnerC;
    opts.deadline = kDeadline;
    auto out = db.Query(w.queries[i], opts);
    if (!out.ok()) {
      std::printf("error on %s: %s\n", w.names[i].c_str(),
                  out.status().ToString().c_str());
      return 1;
    }
    skinner_orders.orders.push_back(out.value().stats.join_order);
    skinner_total += out.value().stats.total_cost;
    skinner_max = std::max(skinner_max, out.value().stats.total_cost);

    // Traditional optimizer's order.
    auto bound = db.Bind(w.queries[i]);
    auto plan = db.OptimizerOrder(*bound.value());
    optimizer_orders.orders.push_back(plan.value().order);

    // Optimal order under true C_out (oracle on its own clock).
    auto info = QueryInfo::Analyze(*bound.value());
    VirtualClock oracle_clock;
    auto pq = PreparedQuery::Prepare(bound.value().get(), &info.value(),
                                     db.catalog()->string_pool(),
                                     &oracle_clock, {});
    TrueCardinalityOracle oracle(pq.value().get(), /*row_limit=*/400'000);
    optimal_orders.orders.push_back(oracle.OptimalOrder().order);
  }

  TablePrinter table({"Engine", "Order", "Total Cost", "Max Cost"});
  table.AddRow({"Skinner", "Skinner", FormatCount(skinner_total),
                FormatCount(skinner_max)});
  struct EngineTotals {
    const char* name;
    uint64_t original = 0;
    uint64_t skinner = 0;
    uint64_t optimal = 0;
  };
  std::vector<EngineTotals> checks;
  for (EngineKind engine : {EngineKind::kVolcano, EngineKind::kBlock}) {
    EngineTotals& e = checks.emplace_back();
    e.name = engine == EngineKind::kVolcano ? "Volcano (PG-like)"
                                            : "Block (MDB-like)";
    const std::pair<const OrderSource*, uint64_t*> sources[] = {
        {&optimizer_orders, &e.original},
        {&skinner_orders, &e.skinner},
        {&optimal_orders, &e.optimal}};
    for (const auto& [src, total] : sources) {
      uint64_t max_cost = 0;
      *total = RunOrders(&db, w, engine, src->orders, &max_cost);
      table.AddRow(
          {e.name, src->label, FormatCount(*total), FormatCount(max_cost)});
    }
  }
  table.Print();
  // The paper's shape, computed per engine from the totals above.
  std::printf("\n");
  for (const EngineTotals& e : checks) {
    PrintShapeCheck(e.name,
                    "Skinner orders should beat the original optimizer's "
                    "on Total Cost",
                    StrFormat("Skinner %s, Original %s",
                              FormatCount(e.skinner).c_str(),
                              FormatCount(e.original).c_str()),
                    e.skinner < e.original);
    const double over_optimal =
        static_cast<double>(e.skinner) /
        std::max(1.0, static_cast<double>(e.optimal));
    PrintShapeCheck(e.name,
                    StrFormat("Skinner orders should land within %.1fx of "
                              "Optimal on Total Cost",
                              kNearOptimal),
                    StrFormat("Skinner %s, Optimal %s (%.2fx)",
                              FormatCount(e.skinner).c_str(),
                              FormatCount(e.optimal).c_str(), over_optimal),
                    over_optimal <= kNearOptimal);
  }
  return 0;
}
