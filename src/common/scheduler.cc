#include "common/scheduler.h"

#include <algorithm>

#include "common/str_util.h"

namespace skinner {

namespace {

int ResolveWorkers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(4, static_cast<int>(hw));
}

int ResolveEngineBudget(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(8, 2 * static_cast<int>(hw));
}

}  // namespace

ThreadLease::ThreadLease(ThreadLease&& o) noexcept
    : sched_(o.sched_), granted_(o.granted_) {
  o.sched_ = nullptr;
  o.granted_ = 0;
}

ThreadLease& ThreadLease::operator=(ThreadLease&& o) noexcept {
  if (this != &o) {
    Release();
    sched_ = o.sched_;
    granted_ = o.granted_;
    o.sched_ = nullptr;
    o.granted_ = 0;
  }
  return *this;
}

ThreadLease::~ThreadLease() { Release(); }

void ThreadLease::Release() {
  if (sched_ != nullptr) {
    sched_->ReleaseLease(granted_);
    sched_ = nullptr;
    granted_ = 0;
  }
}

Scheduler::Scheduler(SchedulerOptions opts)
    : num_workers_(ResolveWorkers(opts.num_workers)), opts_([&] {
        SchedulerOptions o = opts;
        o.num_workers = ResolveWorkers(opts.num_workers);
        o.engine_thread_budget = ResolveEngineBudget(opts.engine_thread_budget);
        o.max_inflight_per_session = std::max(1, o.max_inflight_per_session);
        return o;
      }()) {}

Scheduler::~Scheduler() {
  Drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

void Scheduler::EnsureWorkersLocked() {
  if (!threads_.empty() || stop_) return;
  threads_.reserve(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

bool Scheduler::PfWorkAvailableLocked() const {
  for (const auto& t : pf_tasks_) {
    if (t->helpers < t->max_helpers && t->next.load() < t->count) return true;
  }
  return false;
}

std::shared_ptr<Scheduler::PfTask> Scheduler::ClaimPfLocked() {
  for (const auto& t : pf_tasks_) {
    if (t->helpers < t->max_helpers && t->next.load() < t->count) {
      ++t->helpers;
      return t;
    }
  }
  return nullptr;
}

Scheduler::SessionState* Scheduler::PickSessionLocked(uint64_t* session_id) {
  SessionState* best = nullptr;
  for (auto& [sid, ss] : sessions_) {
    if (ss.queue.empty()) continue;
    if (ss.inflight >= opts_.max_inflight_per_session) continue;
    if (best == nullptr || ss.pass < best->pass) {
      best = &ss;
      *session_id = sid;
    }
    // Ties keep the first (lowest-id) candidate: map iteration is ordered.
  }
  return best;
}

void Scheduler::HelpPf(PfTask* t) {
  for (;;) {
    const size_t i = t->next.fetch_add(1);
    if (i >= t->count) return;
    (*t->fn)(i);
    if (t->done.fetch_add(1) + 1 == t->count) {
      // Lock/unlock pairs with the waiter's predicate check so the final
      // notify cannot slip between its check and its wait.
      std::lock_guard<std::mutex> lk(t->mu);
      t->cv.notify_all();
    }
  }
}

void Scheduler::WorkerMain() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] {
      uint64_t sid;
      return stop_ || PfWorkAvailableLocked() ||
             PickSessionLocked(&sid) != nullptr;
    });
    if (stop_) return;
    // Data-parallel help first: pf tasks belong to jobs already running,
    // and finishing in-flight work beats admitting more of it.
    if (std::shared_ptr<PfTask> t = ClaimPfLocked()) {
      lk.unlock();
      HelpPf(t.get());
      lk.lock();
      --t->helpers;
      continue;
    }
    uint64_t sid = 0;
    SessionState* ss = PickSessionLocked(&sid);
    if (ss == nullptr) continue;
    std::shared_ptr<Job> job = std::move(ss->queue.front());
    ss->queue.pop_front();
    --queued_;
    ++ss->inflight;
    ++active_;
    virtual_time_ = ss->pass;
    ss->pass += 1.0 / ss->weight;
    lk.unlock();
    job->fn();
    lk.lock();
    SessionState& done_ss = sessions_[job->session];
    --done_ss.inflight;
    ++done_ss.completed;
    --active_;
    ++completed_;
    // Resolve the ticket only after the bookkeeping, so a caller that
    // waits on it and then reads stats() sees its job as completed.
    job->promise.set_value();
    // A freed in-flight slot may make another queued job eligible; Drain
    // may have been waiting for this completion.
    cv_.notify_all();
    drain_cv_.notify_all();
  }
}

void Scheduler::ParallelFor(size_t count, int max_threads,
                            const std::function<void(size_t)>& fn,
                            size_t min_grain) {
  const size_t width =
      std::min(count, static_cast<size_t>(std::max(max_threads, 1)));
  if (width <= 1 || count <= min_grain) {
    // Inline fast path: never touches the dispatch queue, so a tiny range
    // (a 0-row table's lone filter morsel) costs a function call, not a
    // mutex round-trip plus a pool wake-up.
    for (size_t i = 0; i < count; ++i) fn(i);
    pf_inline_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto task = std::make_shared<PfTask>();
  task->count = count;
  task->fn = &fn;
  task->max_helpers = static_cast<int>(width) - 1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    EnsureWorkersLocked();
    pf_tasks_.push_back(task);
    ++pf_dispatched_;
  }
  cv_.notify_all();
  // The caller participates: even with every pool worker busy (or helping
  // other tasks), the submitting thread claims indices itself, so nested
  // ParallelFor from jobs running on the pool always completes.
  HelpPf(task.get());
  {
    std::unique_lock<std::mutex> lk(task->mu);
    task->cv.wait(lk, [&] { return task->done.load() == task->count; });
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    pf_tasks_.erase(std::find(pf_tasks_.begin(), pf_tasks_.end(), task));
  }
  // Helpers that already claimed membership but found no index left exit on
  // their own; the shared_ptr keeps the task alive for them.
}

Result<Ticket> Scheduler::Submit(uint64_t session_id,
                                 std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (draining_) {
    ++shed_draining_;
    return Status::ShuttingDown(
        "scheduler is draining; new queries are rejected");
  }
  if (queued_ >= opts_.max_queue_depth) {
    ++shed_overload_;
    ++sessions_[session_id].shed;
    return Status::Overloaded(
        StrFormat("admission queue is full (%zu queued); retry later",
                  queued_));
  }
  SessionState& ss = sessions_[session_id];
  if (opts_.max_queued_per_session > 0 &&
      ss.queue.size() >= opts_.max_queued_per_session) {
    ++shed_quota_;
    ++ss.shed;
    return Status::QuotaExceeded(
        StrFormat("session %llu already has %zu queued queries",
                  static_cast<unsigned long long>(session_id),
                  ss.queue.size()));
  }
  auto job = std::make_shared<Job>();
  job->session = session_id;
  job->fn = std::move(fn);
  Ticket ticket(job->promise.get_future().share());
  if (ss.queue.empty() && ss.inflight == 0) {
    // (Re)activation: never carry credit from an idle period — a session
    // that slept must not burst ahead of sessions that kept the pool busy.
    ss.pass = std::max(ss.pass, virtual_time_);
  }
  ss.queue.push_back(std::move(job));
  ++ss.submitted;
  ++queued_;
  peak_queue_ = std::max(peak_queue_, queued_);
  ++submitted_;
  EnsureWorkersLocked();
  lk.unlock();
  cv_.notify_one();
  return ticket;
}

Status Scheduler::SubmitAndWait(uint64_t session_id,
                                const std::function<void()>& fn) {
  SKINNER_ASSIGN_OR_RETURN(Ticket ticket, Submit(session_id, fn));
  ticket.Wait();
  return Status::OK();
}

void Scheduler::SetSessionWeight(uint64_t session_id, double weight) {
  std::lock_guard<std::mutex> lk(mu_);
  sessions_[session_id].weight = std::max(weight, 1e-6);
}

ThreadLease Scheduler::LeaseThreads(int requested) {
  std::lock_guard<std::mutex> lk(mu_);
  requested = std::max(requested, 1);
  const int headroom = std::max(opts_.engine_thread_budget - leased_, 1);
  const int grant = std::min(requested, headroom);
  leased_ += grant;
  ++lease_grants_;
  if (grant < requested) ++lease_capped_;
  return ThreadLease(this, grant);
}

void Scheduler::ReleaseLease(int granted) {
  std::lock_guard<std::mutex> lk(mu_);
  leased_ -= granted;
}

void Scheduler::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;
  drain_cv_.wait(lk, [&] { return queued_ == 0 && active_ == 0; });
}

Scheduler::Stats Scheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.workers = num_workers_;
  s.submitted = submitted_;
  s.completed = completed_;
  s.shed_overload = shed_overload_;
  s.shed_quota = shed_quota_;
  s.shed_draining = shed_draining_;
  s.queue_depth = queued_;
  s.peak_queue_depth = peak_queue_;
  s.active = active_;
  s.engine_thread_budget = opts_.engine_thread_budget;
  s.leased_threads = leased_;
  s.lease_grants = lease_grants_;
  s.lease_capped = lease_capped_;
  s.pf_inline = pf_inline_.load(std::memory_order_relaxed);
  s.pf_dispatched = pf_dispatched_;
  for (const auto& [sid, ss] : sessions_) {
    SessionStats out;
    out.submitted = ss.submitted;
    out.completed = ss.completed;
    out.shed = ss.shed;
    out.queued = ss.queue.size();
    out.inflight = ss.inflight;
    out.weight = ss.weight;
    s.sessions.emplace_back(sid, out);
  }
  return s;
}

}  // namespace skinner
