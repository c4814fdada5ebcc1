#include "common/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace skinner {
namespace {

TEST(SchedulerParallelForTest, RunsEveryIndexExactlyOnce) {
  Scheduler sched;
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  sched.ParallelFor(n, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SchedulerParallelForTest, SingleThreadRunsInlineAscending) {
  Scheduler sched;
  std::vector<size_t> order;
  sched.ParallelFor(10, 1, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerParallelForTest, ZeroCountReturnsImmediately) {
  Scheduler sched;
  bool ran = false;
  sched.ParallelFor(0, 4, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Nested ParallelFor must complete even when every pool worker is busy:
// the calling thread always participates.
TEST(SchedulerParallelForTest, NestedCallsComplete) {
  SchedulerOptions opts;
  opts.num_workers = 2;
  Scheduler sched(opts);
  std::atomic<int> total{0};
  sched.ParallelFor(4, 4, [&](size_t) {
    sched.ParallelFor(8, 4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * 8);
}

TEST(SchedulerParallelForTest, FromSubmittedJobsCompletes) {
  SchedulerOptions opts;
  opts.num_workers = 2;
  Scheduler sched(opts);
  std::atomic<int> total{0};
  std::vector<Ticket> tickets;
  for (int j = 0; j < 6; ++j) {
    auto t = sched.Submit(1, [&] {
      sched.ParallelFor(16, 4, [&](size_t) { total.fetch_add(1); });
    });
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  for (const Ticket& t : tickets) t.Wait();
  EXPECT_EQ(total.load(), 6 * 16);
}

TEST(SchedulerSubmitTest, JobsRunAndTicketsWait) {
  Scheduler sched;
  std::atomic<int> ran{0};
  std::vector<Ticket> tickets;
  for (int i = 0; i < 20; ++i) {
    auto t = sched.Submit(1, [&] { ran.fetch_add(1); });
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  for (const Ticket& t : tickets) t.Wait();
  EXPECT_EQ(ran.load(), 20);
  Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.submitted, 20u);
  EXPECT_EQ(s.completed, 20u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(SchedulerSubmitTest, SubmitAndWaitRunsInline) {
  Scheduler sched;
  bool ran = false;
  Status st = sched.SubmitAndWait(7, [&] { ran = true; });
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(ran);
}

// A single blocked worker plus a full queue: the bounded queue sheds with
// Overloaded instead of growing without limit.
TEST(SchedulerSubmitTest, BoundedQueueShedsOverloaded) {
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 4;
  opts.max_inflight_per_session = 8;
  Scheduler sched(opts);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = sched.Submit(1, [open] { open.wait(); });
  ASSERT_TRUE(blocker.ok());
  // Wait until the blocker occupies the worker so the queue drains to 0.
  while (sched.stats().active == 0) std::this_thread::yield();

  std::vector<Ticket> queued;
  for (size_t i = 0; i < opts.max_queue_depth; ++i) {
    auto t = sched.Submit(1, [] {});
    ASSERT_TRUE(t.ok()) << "submit " << i;
    queued.push_back(t.value());
  }
  auto shed = sched.Submit(1, [] {});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);

  Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.shed_overload, 1u);
  EXPECT_LE(s.peak_queue_depth, opts.max_queue_depth);

  gate.set_value();
  blocker.value().Wait();
  for (const Ticket& t : queued) t.Wait();
}

TEST(SchedulerSubmitTest, PerSessionAllowanceShedsQuota) {
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 64;
  opts.max_queued_per_session = 2;
  Scheduler sched(opts);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = sched.Submit(99, [open] { open.wait(); });
  ASSERT_TRUE(blocker.ok());
  while (sched.stats().active == 0) std::this_thread::yield();

  std::vector<Ticket> ok;
  for (int i = 0; i < 2; ++i) {
    auto t = sched.Submit(1, [] {});
    ASSERT_TRUE(t.ok());
    ok.push_back(t.value());
  }
  // Session 1 exhausted its allowance; session 2 still gets in.
  auto shed = sched.Submit(1, [] {});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kQuotaExceeded);
  auto other = sched.Submit(2, [] {});
  ASSERT_TRUE(other.ok());
  ok.push_back(other.value());

  EXPECT_EQ(sched.stats().shed_quota, 1u);
  gate.set_value();
  blocker.value().Wait();
  for (const Ticket& t : ok) t.Wait();
}

// With an inflight cap of 1, a session's jobs never run concurrently even
// when workers are free.
TEST(SchedulerSubmitTest, InflightCapLimitsConcurrency) {
  SchedulerOptions opts;
  opts.num_workers = 4;
  opts.max_inflight_per_session = 1;
  Scheduler sched(opts);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<Ticket> tickets;
  for (int i = 0; i < 12; ++i) {
    auto t = sched.Submit(1, [&] {
      int now = running.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
    });
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  for (const Ticket& t : tickets) t.Wait();
  EXPECT_EQ(peak.load(), 1);
}

// Deterministic fairness check: one worker, gated behind a blocker, then
// release and record dispatch order. Stride scheduling with weight 2 for
// session 1 dispatches it twice as often: A B A A B A B B.
TEST(SchedulerSubmitTest, WeightedFairDispatchOrder) {
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 64;
  opts.max_inflight_per_session = 1;
  Scheduler sched(opts);
  sched.SetSessionWeight(1, 2.0);
  sched.SetSessionWeight(2, 1.0);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = sched.Submit(99, [open] { open.wait(); });
  ASSERT_TRUE(blocker.ok());
  while (sched.stats().active == 0) std::this_thread::yield();

  std::mutex mu;
  std::string order;
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = sched.Submit(1, [&] {
      std::lock_guard<std::mutex> lock(mu);
      order += 'A';
    });
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  for (int i = 0; i < 4; ++i) {
    auto t = sched.Submit(2, [&] {
      std::lock_guard<std::mutex> lock(mu);
      order += 'B';
    });
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  gate.set_value();
  for (const Ticket& t : tickets) t.Wait();
  EXPECT_EQ(order, "ABAABABB");
}

TEST(SchedulerSubmitTest, EqualWeightsAlternate) {
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 64;
  opts.max_inflight_per_session = 1;
  Scheduler sched(opts);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = sched.Submit(99, [open] { open.wait(); });
  ASSERT_TRUE(blocker.ok());
  while (sched.stats().active == 0) std::this_thread::yield();

  std::mutex mu;
  std::string order;
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = sched.Submit(1, [&] {
      std::lock_guard<std::mutex> lock(mu);
      order += 'A';
    });
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  for (int i = 0; i < 2; ++i) {
    auto t = sched.Submit(2, [&] {
      std::lock_guard<std::mutex> lock(mu);
      order += 'B';
    });
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  gate.set_value();
  for (const Ticket& t : tickets) t.Wait();
  // FIFO within a session, round-robin across equal weights while both
  // have work, then the longer queue finishes.
  EXPECT_EQ(order, "ABABAA");
}

TEST(SchedulerDrainTest, DrainCompletesQueuedThenRejects) {
  SchedulerOptions opts;
  opts.num_workers = 2;
  Scheduler sched(opts);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    auto t = sched.Submit(1, [&] { ran.fetch_add(1); });
    ASSERT_TRUE(t.ok());
  }
  sched.Drain();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_TRUE(sched.draining());
  auto rejected = sched.Submit(1, [] {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kShuttingDown);
  EXPECT_EQ(sched.stats().shed_draining, 1u);
}

// A count at or below min_grain runs inline on the caller — sequential
// ascending order, no dispatch bookkeeping — and is counted in pf_inline;
// one index past the grain dispatches to the pool.
TEST(SchedulerParallelForTest, MinGrainSelectsInlineFastPath) {
  Scheduler sched;
  const Scheduler::Stats before = sched.stats();

  std::vector<size_t> order;
  sched.ParallelFor(64, 4, [&](size_t i) { order.push_back(i); },
                    /*min_grain=*/64);
  ASSERT_EQ(order.size(), 64u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.pf_inline, before.pf_inline + 1);
  EXPECT_EQ(s.pf_dispatched, before.pf_dispatched);

  // Width 1 is also the inline path, whatever the count.
  sched.ParallelFor(100, 1, [](size_t) {}, /*min_grain=*/0);
  EXPECT_EQ(sched.stats().pf_inline, before.pf_inline + 2);

  std::atomic<int> hits{0};
  sched.ParallelFor(65, 4, [&](size_t) { hits.fetch_add(1); },
                    /*min_grain=*/64);
  EXPECT_EQ(hits.load(), 65);
  s = sched.stats();
  EXPECT_EQ(s.pf_inline, before.pf_inline + 2);
  EXPECT_EQ(s.pf_dispatched, before.pf_dispatched + 1);
}

TEST(SchedulerStatsTest, PerSessionCountersTrack) {
  Scheduler sched;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.SubmitAndWait(5, [] {}).ok());
  }
  ASSERT_TRUE(sched.SubmitAndWait(6, [] {}).ok());
  Scheduler::Stats s = sched.stats();
  bool found5 = false;
  bool found6 = false;
  for (const auto& [id, ss] : s.sessions) {
    if (id == 5) {
      found5 = true;
      EXPECT_EQ(ss.submitted, 3u);
      EXPECT_EQ(ss.completed, 3u);
    }
    if (id == 6) {
      found6 = true;
      EXPECT_EQ(ss.submitted, 1u);
    }
  }
  EXPECT_TRUE(found5);
  EXPECT_TRUE(found6);
}

}  // namespace
}  // namespace skinner
