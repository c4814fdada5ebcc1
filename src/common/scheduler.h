#ifndef SKINNER_COMMON_SCHEDULER_H_
#define SKINNER_COMMON_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace skinner {

/// Completion handle of one submitted job (see Scheduler::Submit). Copyable;
/// Wait() blocks until the job ran. A default-constructed ticket waits for
/// nothing.
class Ticket {
 public:
  Ticket() = default;

  void Wait() const {
    if (fut_.valid()) fut_.wait();
  }

 private:
  friend class Scheduler;
  explicit Ticket(std::shared_future<void> fut) : fut_(std::move(fut)) {}
  std::shared_future<void> fut_;
};

struct SchedulerOptions {
  /// Pool worker threads. 0 = max(4, hardware_concurrency), so single-query
  /// benchmarks on small machines still get the default 4-worker batch
  /// behavior the baselines were recorded with.
  int num_workers = 0;
  /// Admission control: jobs queued (not yet running) across all sessions.
  /// A Submit past this bound is shed with Status::Overloaded.
  size_t max_queue_depth = 256;
  /// Per-session admission bound (0 = none): a session may not hold more
  /// queued jobs than this; excess Submits are shed with
  /// Status::QuotaExceeded while other sessions keep getting in.
  size_t max_queued_per_session = 0;
  /// Fairness: jobs of one session running concurrently. Excess jobs stay
  /// queued (not shed) until one of the session's running jobs finishes.
  int max_inflight_per_session = 4;
};

/// The one process-wide worker pool: every piece of parallel work — batch
/// execution, parallel pre-processing, the search-parallel Skinner-C slice
/// workers — runs as ParallelFor indices on a Scheduler; nothing else in
/// the engine starts a thread. A Database owns one; servers share that one
/// across every client session.
///
/// Two surfaces:
///
///  - ParallelFor(count, max_threads, fn): the data-parallel primitive the
///    engine stages use. The calling thread always participates (claiming
///    indices itself), and idle pool workers help; nested calls from jobs
///    already running on the pool therefore always make progress, even with
///    every worker busy — no deadlock by construction. Indices are claimed
///    through an atomic cursor. When the pool is saturated fewer helpers
///    show up and the caller runs more indices itself: only wall-clock time
///    changes, never results, and callers charge virtual cost at their
///    configured width, not at the number of threads that ran.
///
///  - Submit(session_id, fn) -> Result<Ticket>: whole-query jobs with
///    admission control and cross-session fairness. The queue is bounded
///    (Status::Overloaded past max_queue_depth, Status::QuotaExceeded past
///    a session's own allowance); dispatch is weighted fair queueing
///    (stride scheduling): each session advances a virtual pass by
///    1/weight per dispatched job and the eligible session with the
///    smallest pass runs next, ties broken by session id. A session's jobs
///    run at most max_inflight_per_session at a time. FIFO within a
///    session.
///
/// Shutdown: Drain() stops admission (Submit returns Status::ShuttingDown)
/// and waits until every queued and running job finished; the destructor
/// drains and joins. Pool threads start lazily on first use.
///
/// Thread-safety: all methods; but Drain()/SubmitAndWait() must not be
/// called from a pool worker (a job draining the pool it runs on would
/// wait for itself).
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions opts = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Runs fn(i) for i in [0, count) on the calling thread plus up to
  /// max_threads - 1 helping pool workers. Returns when every index ran.
  /// Executes inline (ascending, no pool) when one worker suffices. `fn`
  /// must be safe to call concurrently for distinct indices and must not
  /// throw.
  ///
  /// `min_grain` is the inline fast path: a range of at most min_grain
  /// indices runs entirely on the caller thread without touching the
  /// dispatch queue (no mutex, no worker wake-up). Callers that know their
  /// indices are tiny (a 0-row table's single filter morsel, a handful of
  /// trivial index jobs) pass the threshold and skip the dispatch overhead
  /// that would dominate the work itself. Results are identical on either
  /// path — only scheduling changes.
  void ParallelFor(size_t count, int max_threads,
                   const std::function<void(size_t)>& fn,
                   size_t min_grain = 0);

  /// Enqueues `fn` as one job of `session_id`, subject to admission
  /// control; returns a Ticket to wait on, or Overloaded / QuotaExceeded /
  /// ShuttingDown when shed (fn is then never run). `fn` must not throw.
  Result<Ticket> Submit(uint64_t session_id, std::function<void()> fn);

  /// Submit + Wait. Must not be called from a pool worker.
  Status SubmitAndWait(uint64_t session_id, const std::function<void()>& fn);

  /// Sets a session's fair-queueing weight (default 1.0; must be > 0).
  /// A weight-2 session is dispatched twice as often under contention.
  void SetSessionWeight(uint64_t session_id, double weight);

  /// Stops admission (Submit -> ShuttingDown) and waits for every queued
  /// and in-flight job to finish. Idempotent. ParallelFor stays usable —
  /// in-flight jobs need it to finish.
  void Drain();

  int num_workers() const { return num_workers_; }
  bool draining() const;

  struct SessionStats {
    uint64_t submitted = 0;  // admitted jobs
    uint64_t completed = 0;
    uint64_t shed = 0;       // rejected: overload or quota
    size_t queued = 0;
    int inflight = 0;
    double weight = 1.0;
  };
  struct Stats {
    int workers = 0;
    uint64_t submitted = 0;       // admitted jobs, all sessions
    uint64_t completed = 0;
    uint64_t shed_overload = 0;   // global queue bound
    uint64_t shed_quota = 0;      // per-session queue bound
    uint64_t shed_draining = 0;
    size_t queue_depth = 0;       // queued right now
    size_t peak_queue_depth = 0;
    int active = 0;               // jobs running right now
    /// Always 0: the engine-thread leases this counted are gone. Kept
    /// declared because the end-to-end benchmark reports it; a
    /// benchmark-scoped change drops it.
    uint64_t lease_capped = 0;
    /// ParallelFor calls resolved entirely on the caller thread (width 1
    /// or at most min_grain indices) vs. pushed to the dispatch queue.
    uint64_t pf_inline = 0;
    uint64_t pf_dispatched = 0;
    std::vector<std::pair<uint64_t, SessionStats>> sessions;  // by id
  };
  Stats stats() const;

 private:
  /// One ParallelFor in flight: indices are claimed via `next`, completion
  /// counted via `done`; the submitting thread waits on `cv` until done ==
  /// count. `helpers` (guarded by the scheduler mutex) caps pool
  /// participation at the caller's max_threads - 1.
  struct PfTask {
    size_t count = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    int max_helpers = 0;
    int helpers = 0;  // guarded by Scheduler::mu_
    std::mutex mu;
    std::condition_variable cv;
  };

  struct Job {
    uint64_t session = 0;
    std::function<void()> fn;
    std::promise<void> promise;
  };

  struct SessionState {
    std::deque<std::shared_ptr<Job>> queue;
    int inflight = 0;
    double weight = 1.0;
    double pass = 0;  // stride-scheduling virtual pass
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
  };

  void EnsureWorkersLocked();
  void WorkerMain();
  /// Claims helper membership in the first pf task that still has
  /// unclaimed indices and helper headroom; null if none.
  std::shared_ptr<PfTask> ClaimPfLocked();
  bool PfWorkAvailableLocked() const;
  /// The eligible session (non-empty queue, inflight below cap) with the
  /// smallest pass; null if none.
  SessionState* PickSessionLocked(uint64_t* session_id);
  /// Claims indices of `t` until exhausted; signals t->cv at completion.
  void HelpPf(PfTask* t);

  const int num_workers_;
  const SchedulerOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // workers: new pf/job work or stop
  std::condition_variable drain_cv_;  // Drain(): queue+active reached 0
  std::vector<std::thread> threads_;  // lazily started pool workers
  std::vector<std::shared_ptr<PfTask>> pf_tasks_;
  std::map<uint64_t, SessionState> sessions_;  // ordered: deterministic ties
  size_t queued_ = 0;
  size_t peak_queue_ = 0;
  int active_ = 0;
  double virtual_time_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t shed_overload_ = 0;
  uint64_t shed_quota_ = 0;
  uint64_t shed_draining_ = 0;
  /// Atomic: the inline fast path must not touch mu_ (that is its point).
  std::atomic<uint64_t> pf_inline_{0};
  uint64_t pf_dispatched_ = 0;  // guarded by mu_
};

/// Routes fn over [0, count) through `sched` when one is available, else
/// runs inline sequentially (callers outside any Database, e.g. direct
/// PreparedQuery::Prepare users). Results never depend on which path runs.
inline void SchedParallelFor(Scheduler* sched, size_t count, int max_threads,
                             const std::function<void(size_t)>& fn,
                             size_t min_grain = 0) {
  if (sched != nullptr) {
    sched->ParallelFor(count, max_threads, fn, min_grain);
    return;
  }
  for (size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace skinner

#endif  // SKINNER_COMMON_SCHEDULER_H_
