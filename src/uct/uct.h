#ifndef SKINNER_UCT_UCT_H_
#define SKINNER_UCT_UCT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "query/query_info.h"

namespace skinner {

/// Join-order selection policies.
enum class SelectionPolicy {
  /// UCT (Kocsis & Szepesvari 2006): UCB1 applied to the join-order tree.
  kUct,
  /// Uniform random eligible completion; no learning (paper Table 5).
  kRandom,
};

struct UctOptions {
  /// Exploration weight w in r_c + w * sqrt(log(v_p) / v_c). The paper uses
  /// sqrt(2) for Skinner-G/H (0/1 rewards) and 1e-6 for Skinner-C (tiny
  /// fractional rewards).
  double explore_weight = 1.4142135623730951;
  SelectionPolicy policy = SelectionPolicy::kUct;
  uint64_t seed = 42;
};

/// UCT search tree over join orders (paper Section 4.1/4.2). Level k of the
/// tree decides the table at join-order position k; children are restricted
/// to tables avoiding needless Cartesian products. The materialized tree
/// grows by at most one node per round; below the materialized frontier the
/// order is completed uniformly at random.
class JoinOrderUct {
 public:
  JoinOrderUct(const QueryInfo* info, const UctOptions& opts);

  JoinOrderUct(const JoinOrderUct&) = delete;
  JoinOrderUct& operator=(const JoinOrderUct&) = delete;

  /// Selects the join order for the next time slice (UctChoice in the
  /// paper's pseudo-code) into `order`, reusing its capacity: a choice
  /// that expands no tree node allocates nothing. Expands at most one tree
  /// node.
  void Choose(std::vector<int>* order);

  /// Registers `reward` (in [0,1]) for `order`: updates visit counts and
  /// average rewards in all materialized nodes along the path
  /// (RewardUpdate in the paper).
  void RewardUpdate(const std::vector<int>& order, double reward);

  /// Warm start (PreparedCache): seeds the tree's priors as if `order` had
  /// already run `visits` slices of reward `reward` each, materializing
  /// the path. At every node along it the hinted action starts as the
  /// exploit choice while each sibling starts merely "tried" (one visit,
  /// zero reward) — without that, Choose()'s untried-actions-first rule
  /// would explore every sibling before honoring the hint. Real rewards
  /// quickly dominate the tiny prior, so a stale hint only costs a few
  /// slices; learning stays per-execution as in the paper. Stops silently
  /// at the first inconsistent position of `order`. No-op for kRandom.
  void SeedPriors(const std::vector<int>& order, int64_t visits,
                  double reward);

  /// Current number of materialized tree nodes (paper Figure 7a/8a).
  size_t num_nodes() const { return num_nodes_; }

  /// Exploitation-only path: at every materialized node, picks the child
  /// with the highest visit count. Used to extract the "final" join order
  /// that Skinner converged to (paper Table 3).
  std::vector<int> BestOrder() const;

  /// Sum of visits at the root (number of completed rounds).
  int64_t total_visits() const;

 private:
  struct Node {
    int64_t visits = 0;
    double reward_sum = 0;
    // Eligible next tables (actions) and their child nodes; children are
    // materialized lazily (nullptr = not yet part of the tree).
    std::vector<int> actions;
    std::vector<std::unique_ptr<Node>> children;
    // Per-action statistics (also covers not-yet-materialized children so
    // UCB has data as soon as an action was tried once).
    std::vector<int64_t> action_visits;
    std::vector<double> action_reward;
  };

  Node* MakeNode(TableSet chosen);
  int SelectAction(const Node& node);
  /// A uniformly random eligible extension of `chosen`: the r-th eligible
  /// table for r = rng_.Uniform(#eligible).
  int RandomEligible(TableSet chosen);

  const QueryInfo* info_;
  UctOptions opts_;
  std::unique_ptr<Node> root_;
  size_t num_nodes_ = 0;
  Rng rng_;
};

}  // namespace skinner

#endif  // SKINNER_UCT_UCT_H_
