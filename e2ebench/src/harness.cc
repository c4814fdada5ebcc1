#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/query_pipeline.h"

namespace e2e {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) : s_(DeriveSeed(seed, 0) | 1) {}

uint64_t Rng::Next() {
  s_ ^= s_ << 13;
  s_ ^= s_ >> 7;
  s_ ^= s_ << 17;
  return s_;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics_) {
    if (n == name) {
      m = Metric{value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "CORRECTNESS FAILURE: %s\n", why.c_str());
  Note("correctness failure: %s", why.c_str());
}

std::vector<std::string> Report::Keep(const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, Metric>> kept;
  std::vector<std::string> missing;
  for (const std::string& name : names) {
    auto it = std::find_if(metrics_.begin(), metrics_.end(),
                           [&](const auto& m) { return m.first == name; });
    if (it == metrics_.end()) {
      missing.push_back(name);
    } else {
      kept.push_back(*it);
    }
  }
  metrics_ = std::move(kept);
  return missing;
}

std::string Report::Json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char buf[64];
    // Every digit as measured; a non-finite value (no samples) is 0.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  return (*std::max_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid)) +
          upper) / 2;
}

Tail TailAt(const std::vector<double>& samples, double pct) {
  Tail t;
  t.pct = pct;
  t.samples = samples.size();
  t.ms = Quantile(samples, pct / 100.0);
  t.beyond = static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(), [&](double v) { return v > t.ms; }));
  return t;
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, uint64_t request,
                     uint64_t parent)
    : tracer_(tracer) {
  span_.name = std::move(name);
  span_.request = request;
  span_.parent = parent;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    span_.id = tracer_->next_id_++;
  }
  span_.start_ms = tracer_->NowMs();
}

Tracer::Scope::Scope(Scope&& o) noexcept : tracer_(o.tracer_), span_(std::move(o.span_)) {
  o.tracer_ = nullptr;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ms = tracer_->NowMs();
  tracer_->Record(std::move(span_));
}

Tracer::Scope Tracer::Begin(std::string name, uint64_t request, uint64_t parent) {
  if (!enabled_) return Scope();
  return Scope(this, std::move(name), request, parent);
}

uint64_t Tracer::NewRequestId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::map<std::string, Tracer::Layer> Tracer::Summarize(double since_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children per parent, to subtract the union of their intervals.
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::map<std::string, Layer> out;
  for (const Span& s : spans_) {
    if (s.start_ms < since_ms) continue;
    const double dur = s.end_ms - s.start_ms;
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0;
      double hi = -1;
      for (const auto& [a, b] : iv) {
        const double ca = std::max(a, s.start_ms);
        const double cb = std::min(b, s.end_ms);
        if (cb <= ca) continue;
        if (ca > hi) {
          if (hi > lo) covered += hi - lo;
          lo = ca;
          hi = cb;
        } else {
          hi = std::max(hi, cb);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    Layer& l = out[s.name];
    ++l.calls;
    l.total_ms += dur;
    l.self_ms += std::max(0.0, dur - covered);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"request\": %llu, \"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.start_ms,
                  s.end_ms);
    out << buf;
  }
  return static_cast<bool>(out);
}

skinner::Result<skinner::QueryOutput> RunSelect(
    skinner::Database* db, const std::string& sql,
    const skinner::ExecOptions& eo, Tracer* tracer, uint64_t request,
    uint64_t parent, StageMs* ms) {
  if (!tracer->enabled()) return db->Query(sql, eo);
  skinner::QueryPipeline p(db->catalog(), db->udfs(), db->stats_manager(),
                           db->prepared_cache(), db->scheduler());
  auto stage = [&](const char* name, double* acc, auto&& fn) {
    const Clock::time_point start = Clock::now();
    Tracer::Scope span = tracer->Begin(name, request, parent);
    auto r = fn();
    *acc += MillisSince(start);
    return r;
  };
  auto stmt = stage("sql.parse", &ms->parse, [&] { return p.Parse(sql); });
  if (!stmt.ok()) return stmt.status();
  auto bound = stage("sql.bind", &ms->bind,
                     [&] { return p.Bind(stmt.MoveValue()); });
  if (!bound.ok()) return bound.status();
  auto prep = stage("exec.prepare", &ms->prepare,
                    [&] { return p.Prepare(bound.MoveValue(), eo); });
  if (!prep.ok()) return prep.status();
  auto exec = stage("skinner.execute", &ms->execute,
                    [&] { return p.Execute(prep.value(), eo); });
  if (!exec.ok()) return exec.status();
  return stage("post.postprocess", &ms->post, [&] {
    return p.PostProcess(prep.value(), exec.MoveValue());
  });
}

std::string CanonicalRows(const skinner::QueryResult& result) {
  std::vector<std::string> lines;
  lines.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string line;
    for (const auto& v : row) {
      line += v.ToString();
      line += '|';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

skinner::Result<std::string> TableFingerprint(skinner::Database* db,
                                              const std::string& table) {
  auto out = db->Query("SELECT * FROM " + table);
  if (!out.ok()) return out.status();
  uint64_t sum = 0;
  std::string line;
  for (const auto& row : out.value().result.rows) {
    line.clear();
    for (const auto& v : row) {
      line += v.ToString();
      line += '|';
    }
    sum += Fnv1a(line);  // wraps: an order-independent multiset hash
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", out.value().result.rows.size(),
                static_cast<unsigned long long>(sum));
  return std::string(buf);
}

skinner::Result<std::map<std::string, std::string>> Fingerprints(
    skinner::Database* db, const std::vector<std::string>& tables) {
  std::map<std::string, std::string> out;
  for (const std::string& t : tables) {
    auto fp = TableFingerprint(db, t);
    if (!fp.ok()) return fp.status();
    out[t] = fp.value();
  }
  return out;
}

WriteGen::WriteGen(int64_t titles, uint64_t seed)
    : rows_(std::max<int64_t>(titles, 1)), rng_(seed) {}

std::string WriteGen::Next() {
  static const char* kCountries[6] = {"[us]", "[gb]", "[de]",
                                      "[fr]", "[in]", "[jp]"};
  // Kinds come in shuffled blocks of ten, so every run writes each kind in
  // the same proportion and a latency percentile never lands on a
  // different kind from run to run.
  if (block_.empty()) {
    for (uint64_t k = 0; k < 10; ++k) block_.push_back(k);
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Uniform(i)]);
    }
  }
  const uint64_t kind = block_.back();
  block_.pop_back();
  const long long key = static_cast<long long>(rng_.Uniform(static_cast<uint64_t>(rows_)));
  char buf[160];
  if (kind < 6) {
    std::snprintf(buf, sizeof(buf),
                  "UPDATE title SET production_year = %d WHERE id = %lld",
                  1930 + static_cast<int>(rng_.Uniform(90)), key);
  } else if (kind < 8) {
    // company_name has rows/10 entries (see GenerateJob).
    std::snprintf(buf, sizeof(buf),
                  "UPDATE company_name SET country_code = '%s' WHERE id = %lld",
                  kCountries[rng_.Uniform(6)],
                  key % std::max<long long>(20, rows_ / 10));
  } else {
    std::snprintf(buf, sizeof(buf), "DELETE FROM title WHERE id = %lld", key);
  }
  return buf;
}

std::vector<std::string> WriteGen::Tables() { return {"title", "company_name"}; }

void RemoveTree(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    ::unlink(path.c_str());
    return;
  }
  while (dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st {};
    if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(child);
    } else {
      ::unlink(child.c_str());
    }
  }
  ::closedir(dir);
  ::rmdir(path.c_str());
}

Recovery CheckRecovery(std::unique_ptr<skinner::Database>* db,
                       const std::string& dir,
                       const std::vector<std::string>& tables, int reopens,
                       const Options& opts, Tracer* tracer, Report* report,
                       const std::function<void()>& shutdown) {
  Recovery rec;
  auto before = Fingerprints(db->get(), tables);
  if (shutdown) shutdown();
  db->reset();
  if (!before.ok()) {
    report->Fail("fingerprint before reopen: " + before.status().ToString());
    return rec;
  }
  if (opts.plant_bad_fingerprint) before.value().begin()->second += "-planted";
  std::vector<double> open_ms;
  for (int i = 0; i < reopens; ++i) {
    const uint64_t request = tracer->NewRequestId();
    std::unique_ptr<skinner::Database> reopened;
    skinner::Status status;
    open_ms.push_back(TimeMs([&] {
      Tracer::Scope span = tracer->Begin("txn.open", request);
      auto opened = skinner::Database::Open(dir, skinner::FsyncPolicy::kAlways);
      if (opened.ok()) {
        reopened = opened.MoveValue();
      } else {
        status = opened.status();
      }
    }));
    if (reopened == nullptr) {
      report->Fail("reopen: " + status.ToString());
      return rec;
    }
    if (i > 0) continue;
    rec.replayed = reopened->wal_stats().recovery_replayed_records;
    auto after = Fingerprints(reopened.get(), tables);
    if (!after.ok()) {
      report->Fail("fingerprint after reopen: " + after.status().ToString());
      return rec;
    }
    for (const std::string& t : tables) {
      if (before.value()[t] != after.value()[t]) {
        report->Fail("table " + t + " differs after reopen (" +
                     before.value()[t] + " acknowledged, " + after.value()[t] +
                     " recovered)");
      }
    }
  }
  rec.open_s = Median(open_ms) / 1000.0;
  return rec;
}

QueueSampler::QueueSampler(skinner::Database* db)
    : db_(db), thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, std::chrono::milliseconds(5),
                             [this] { return stop_; })) {
          const double depth =
              static_cast<double>(db_->scheduler()->stats().queue_depth);
          sum_ += depth;
          peak_ = std::max(peak_, depth);
          ++samples_;
        }
      }) {}

QueueSampler::~QueueSampler() { Stop(); }

std::pair<double, double> QueueSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return {samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_), peak_};
}

void Note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace e2e
