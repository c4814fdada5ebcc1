// Shared pieces of the end-to-end benchmark driver: options, the result
// report, latency statistics, the span tracer, correctness fingerprints and
// the seeded write generator.
//
// The driver reaches the system only through its public headers (api/,
// server/, benchgen/, exec/prepared_cache.h, common/scheduler.h) and
// measures every layer from outside, by timing its own calls into that
// layer and by reading the public stats getters.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny scale and short windows: the benchmark's own self-test.
  bool quick = false;
  /// Corrupts one recorded correctness reference (a durability fingerprint
  /// on serve-mixed, a Volcano oracle result on job and tpch), so the
  /// self-test can prove that a mismatch fails the run.
  bool plant_bad_fingerprint = false;
  /// Scratch directory for the run's durable databases.
  std::string work_dir;
};

/// Independent deterministic stream `stream` of the workload seed
/// (splitmix64 finalizer). Every random choice of a run derives from it.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// A small seeded generator (xorshift over a splitmix-derived state).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t s_;
};

/// The result of one run: metric values plus the correctness verdict,
/// printed as the last line of stdout.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure (the run's `correct` turns false).
  void Fail(const std::string& why);
  void CountAttempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  bool correct() const { return correct_; }
  /// Keeps only the metrics named in `names`, in that order; returns the
  /// names that were never set.
  std::vector<std::string> Keep(const std::vector<std::string>& names);
  std::string Json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
/// The median: the mean of the two middle values for an even count.
double Median(std::vector<double> samples);

/// A latency tail at a fixed percentile, with the evidence behind it.
struct Tail {
  double pct = 0;
  double ms = 0;
  size_t samples = 0;
  size_t beyond = 0;  // samples strictly above the reported value
};
/// The tail at percentile `pct`. The percentile is fixed per workload (not
/// picked from the sample count) so that a faster program, which collects
/// more samples, is never judged at a higher percentile than its parent.
Tail TailAt(const std::vector<double>& samples, double pct);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Spans around the benchmark's calls into each layer (name, start, end,
/// parent span, request id), kept in memory and written out at exit. A
/// disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0: a root span
    uint64_t request = 0;  // the request every span of one request shares
    double start_ms = 0;   // since the tracer's epoch
    double end_ms = 0;
  };

  /// An open span; records itself when it goes out of scope.
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, std::string name, uint64_t request, uint64_t parent);
    Scope(Scope&& o) noexcept;
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_ = nullptr;
    Span span_;
  };

  Scope Begin(std::string name, uint64_t request, uint64_t parent = 0);
  uint64_t NewRequestId();

  struct Layer {
    uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;  // span time not covered by child spans
  };
  /// Totals per span name, over spans that started at or after `since_ms`.
  std::map<std::string, Layer> Summarize(double since_ms = 0) const;
  double NowMs() const { return MillisSince(epoch_); }

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  void Record(Span span);

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;     // guarded by mu_
};

/// Wall milliseconds of the five pipeline stages (traced path only).
struct StageMs {
  double parse = 0;
  double bind = 0;
  double prepare = 0;
  double execute = 0;
  double post = 0;
};

/// Runs one SELECT. Untraced: Database::Query, the user's path. Traced: the
/// same five QueryPipeline stages over the database's own components, each
/// under a span whose parent is `parent`, accumulating into `ms`. The
/// traced path skips the database's DDL lock, so it runs only while no
/// other thread writes.
skinner::Result<skinner::QueryOutput> RunSelect(
    skinner::Database* db, const std::string& sql,
    const skinner::ExecOptions& eo, Tracer* tracer, uint64_t request,
    uint64_t parent, StageMs* ms);

/// Canonical (sorted) rendering of a result, for engine comparisons.
std::string CanonicalRows(const skinner::QueryResult& result);

/// Order-independent fingerprint of a table's live rows (row count plus the
/// sum of per-row hashes), read through `SELECT *`.
skinner::Result<std::string> TableFingerprint(skinner::Database* db,
                                              const std::string& table);

/// Fingerprints of `tables`; on a query error returns the failing status.
skinner::Result<std::map<std::string, std::string>> Fingerprints(
    skinner::Database* db, const std::vector<std::string>& tables);

/// Single-row writes on the JOB data: each call returns one UPDATE or
/// DELETE statement addressing a row of `title` or `company_name` by id.
class WriteGen {
 public:
  WriteGen(int64_t titles, uint64_t seed);
  std::string Next();
  /// The tables the generated statements write.
  static std::vector<std::string> Tables();

 private:
  int64_t rows_;  // number of titles: the key range of `title`
  Rng rng_;
  std::vector<uint64_t> block_;  // statement kinds left in this block
};

/// Removes a directory tree (the benchmark's own scratch data only).
void RemoveTree(const std::string& path);

/// What the durability check measured.
struct Recovery {
  double open_s = 0;      // median Database::Open time over the reopens
  uint64_t replayed = 0;  // WAL records the reopened database replayed
};

/// The durability check every workload ends with: fingerprints `tables` in
/// `*db`, runs `shutdown` (stopping whatever serves the database), closes
/// it, reopens `dir` `reopens` times (timing each Database::Open), and
/// fails the run unless the reopened fingerprints equal the ones taken
/// before closing, i.e. every acknowledged write was recovered. Leaves
/// `*db` null.
Recovery CheckRecovery(std::unique_ptr<skinner::Database>* db,
                       const std::string& dir,
                       const std::vector<std::string>& tables, int reopens,
                       const Options& opts, Tracer* tracer, Report* report,
                       const std::function<void()>& shutdown = nullptr);

/// Samples the scheduler's queue depth every 5 ms while alive
/// (traced runs only: the sampler is a layer probe, not load).
class QueueSampler {
 public:
  explicit QueueSampler(skinner::Database* db);
  ~QueueSampler();
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;
  /// Stops sampling; returns {mean, peak} queue depth.
  std::pair<double, double> Stop();

 private:
  skinner::Database* db_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  double sum_ = 0;
  double peak_ = 0;
  uint64_t samples_ = 0;
  std::thread thread_;  // last: starts after the fields it uses
};

/// Times `fn` once and returns milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return MillisSince(start);
}

/// Prints a human-readable line to stdout (before the final JSON line).
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
