#include "uct/uct.h"

#include <cmath>

namespace skinner {

JoinOrderUct::JoinOrderUct(const QueryInfo* info, const UctOptions& opts)
    : info_(info), opts_(opts), rng_(opts.seed) {
  root_.reset(MakeNode(0));
}

JoinOrderUct::Node* JoinOrderUct::MakeNode(TableSet chosen) {
  Node* n = new Node();
  n->actions = info_->EligibleTables(chosen);
  n->children.resize(n->actions.size());
  n->action_visits.assign(n->actions.size(), 0);
  n->action_reward.assign(n->actions.size(), 0.0);
  ++num_nodes_;
  return n;
}

int JoinOrderUct::SelectAction(const Node& node) {
  // Untried actions first (infinite upper confidence bound); random among
  // them to avoid systematic bias: draw r, then take the r-th untried one.
  uint64_t untried = 0;
  for (int64_t v : node.action_visits) untried += v == 0 ? 1 : 0;
  if (untried > 0) {
    uint64_t r = rng_.Uniform(untried);
    for (size_t a = 0;; ++a) {
      if (node.action_visits[a] == 0 && r-- == 0) return static_cast<int>(a);
    }
  }
  double log_vp = std::log(static_cast<double>(std::max<int64_t>(node.visits, 1)));
  double best = -1;
  int best_a = 0;
  int num_best = 0;
  for (size_t a = 0; a < node.actions.size(); ++a) {
    double vc = static_cast<double>(node.action_visits[a]);
    double mean = node.action_reward[a] / vc;
    double ucb = mean + opts_.explore_weight * std::sqrt(log_vp / vc);
    if (ucb > best) {
      best = ucb;
      best_a = static_cast<int>(a);
      num_best = 1;
    } else if (ucb == best) {
      // Reservoir-style random tie-break.
      ++num_best;
      if (rng_.Uniform(static_cast<uint64_t>(num_best)) == 0) {
        best_a = static_cast<int>(a);
      }
    }
  }
  return best_a;
}

int JoinOrderUct::RandomEligible(TableSet chosen) {
  const TableSet elig = info_->EligibleMask(chosen);
  return NthTable(elig, rng_.Uniform(
                            static_cast<uint64_t>(__builtin_popcount(elig))));
}

void JoinOrderUct::Choose(std::vector<int>* order) {
  const int m = info_->num_tables();
  order->clear();
  TableSet chosen = 0;

  if (opts_.policy == SelectionPolicy::kRandom) {
    while (static_cast<int>(order->size()) < m) {
      const int t = RandomEligible(chosen);
      order->push_back(t);
      chosen |= TableBit(t);
    }
    return;
  }

  Node* node = root_.get();
  bool expanded = false;
  while (static_cast<int>(order->size()) < m) {
    if (node != nullptr) {
      size_t a = static_cast<size_t>(SelectAction(*node));
      int t = node->actions[a];
      order->push_back(t);
      chosen |= TableBit(t);
      Node* child = node->children[a].get();
      if (child == nullptr && !expanded &&
          static_cast<int>(order->size()) < m) {
        // Materialize at most one new node per round (paper Section 4.1).
        node->children[a].reset(MakeNode(chosen));
        child = node->children[a].get();
        expanded = true;
      }
      node = child;
    } else {
      // Below the materialized frontier: random completion.
      const int t = RandomEligible(chosen);
      order->push_back(t);
      chosen |= TableBit(t);
    }
  }
}

void JoinOrderUct::RewardUpdate(const std::vector<int>& order, double reward) {
  Node* node = root_.get();
  for (int t : order) {
    if (node == nullptr) return;
    node->visits += 1;
    node->reward_sum += reward;
    // Find the action for table t.
    size_t a = 0;
    bool found = false;
    for (; a < node->actions.size(); ++a) {
      if (node->actions[a] == t) {
        found = true;
        break;
      }
    }
    if (!found) return;  // order inconsistent with tree (should not happen)
    node->action_visits[a] += 1;
    node->action_reward[a] += reward;
    node = node->children[a].get();
  }
  if (node != nullptr) {
    node->visits += 1;
    node->reward_sum += reward;
  }
}

void JoinOrderUct::SeedPriors(const std::vector<int>& order, int64_t visits,
                              double reward) {
  if (opts_.policy == SelectionPolicy::kRandom || visits <= 0) return;
  Node* node = root_.get();
  TableSet chosen = 0;
  for (size_t d = 0; d < order.size(); ++d) {
    const int t = order[d];
    size_t a = 0;
    bool found = false;
    for (; a < node->actions.size(); ++a) {
      if (node->actions[a] == t) {
        found = true;
        break;
      }
    }
    if (!found) return;  // hint from an incompatible query shape: stop
    for (size_t s = 0; s < node->actions.size(); ++s) {
      if (node->action_visits[s] != 0) continue;  // keep real statistics
      const bool hinted = s == a;
      node->action_visits[s] = hinted ? visits : 1;
      node->action_reward[s] = hinted ? reward * static_cast<double>(visits) : 0;
      node->visits += node->action_visits[s];
      node->reward_sum += node->action_reward[s];
    }
    chosen |= TableBit(t);
    if (d + 1 >= order.size()) break;
    if (node->children[a] == nullptr) node->children[a].reset(MakeNode(chosen));
    node = node->children[a].get();
  }
}

std::vector<int> JoinOrderUct::BestOrder() const {
  const int m = info_->num_tables();
  std::vector<int> order;
  TableSet chosen = 0;
  const Node* node = root_.get();
  while (static_cast<int>(order.size()) < m) {
    int t = -1;
    if (node != nullptr) {
      int64_t best_visits = -1;
      size_t best_a = 0;
      for (size_t a = 0; a < node->actions.size(); ++a) {
        if (node->action_visits[a] > best_visits) {
          best_visits = node->action_visits[a];
          best_a = a;
        }
      }
      if (best_visits > 0) {
        t = node->actions[best_a];
        node = node->children[best_a].get();
      } else {
        node = nullptr;
      }
    }
    if (t < 0) {
      // Unvisited region: first eligible table (deterministic).
      std::vector<int> elig = info_->EligibleTables(chosen);
      t = elig.front();
      node = nullptr;
    }
    order.push_back(t);
    chosen |= TableBit(t);
  }
  return order;
}

int64_t JoinOrderUct::total_visits() const { return root_->visits; }

}  // namespace skinner
