#include "server/server.h"

#include <cctype>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "common/str_util.h"

namespace skinner {

namespace {

/// Strips a trailing CR (telnet/netcat clients) and surrounding spaces.
std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

/// Splits "<first-word> <rest>"; rest is trimmed and may be empty.
void SplitCommand(const std::string& line, std::string* head,
                  std::string* rest) {
  size_t sp = line.find_first_of(" \t");
  if (sp == std::string::npos) {
    *head = line;
    rest->clear();
    return;
  }
  *head = line.substr(0, sp);
  *rest = Trim(line.substr(sp + 1));
}

/// One-line error message: newlines would break the framing.
std::string Flatten(const std::string& msg) {
  std::string out = msg;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

ServerResponse ErrorResponse(const Status& st) {
  ServerResponse r;
  r.text = "ERR ";
  r.text += StatusCodeToken(st.code());
  if (!st.message().empty()) {
    r.text += ' ';
    r.text += Flatten(st.message());
  }
  r.text += '\n';
  return r;
}

void AppendResultLines(const QueryOutput& out, std::string* text) {
  for (const auto& row : out.result.rows) {
    text->append("ROW");
    for (size_t i = 0; i < row.size(); ++i) {
      text->push_back(i == 0 ? ' ' : '\t');
      text->append(EscapeField(row[i].ToString()));
    }
    text->push_back('\n');
  }
  std::ostringstream tail;
  tail << "OK rows=" << out.result.rows.size()
       << " cost=" << out.stats.total_cost << "\n";
  text->append(tail.str());
}

/// Wall time of one admitted execution, in whole microseconds.
uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string EscapeField(const std::string& field) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<std::vector<Value>> ParseLiteralList(const std::string& text) {
  std::vector<Value> values;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
    if (i >= n) break;
    if (text[i] == '\'') {
      // 'string' with '' as the escaped quote.
      std::string s;
      ++i;
      bool closed = false;
      while (i < n) {
        if (text[i] == '\'') {
          if (i + 1 < n && text[i + 1] == '\'') {
            s.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        s.push_back(text[i++]);
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal");
      }
      values.push_back(Value::String(std::move(s)));
      continue;
    }
    size_t start = i;
    while (i < n && text[i] != ' ' && text[i] != '\t') ++i;
    std::string tok = text.substr(start, i - start);
    std::string upper = tok;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    if (upper == "NULL") {
      values.push_back(Value::Null());
      continue;
    }
    if (tok.find_first_of(".eE") != std::string::npos) {
      SKINNER_ASSIGN_OR_RETURN(double d, ParseDouble(tok));
      values.push_back(Value::Double(d));
    } else {
      SKINNER_ASSIGN_OR_RETURN(int64_t v, ParseInt64(tok));
      values.push_back(Value::Int(v));
    }
  }
  return values;
}

// ---------------------------------------------------------------------------
// ServerCore
// ---------------------------------------------------------------------------

ServerCore::ServerCore(Database* db, ServerOptions opts)
    : db_(db), opts_(std::move(opts)) {}

ServerCore::~ServerCore() = default;

Result<std::unique_ptr<ServerConnection>> ServerCore::Connect() {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      return Status::ShuttingDown("server is shutting down");
    }
    if (active_ >= opts_.max_sessions) {
      ++conn_shed_;
      return Status::Overloaded("too many sessions");
    }
    ++active_;
    ++accepted_;
  }
  session = db_->CreateSession(opts_.defaults);
  return std::unique_ptr<ServerConnection>(
      new ServerConnection(this, std::move(session)));
}

void ServerCore::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  db_->scheduler()->Drain();
}

bool ServerCore::shutting_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutting_down_;
}

void ServerCore::RecordLatency(uint64_t session_id, uint64_t micros) {
  // Bucket = floor(log2(micros)), i.e. bucket b holds [2^b, 2^{b+1}) us;
  // sub-microsecond latencies land in bucket 0.
  size_t b = 0;
  for (uint64_t v = micros >> 1; v != 0 && b + 1 < kLatencyBuckets; v >>= 1) {
    ++b;
  }
  std::lock_guard<std::mutex> lock(mu_);
  LatencyHist& h = latency_[session_id];
  ++h.count;
  ++h.buckets[b];
}

namespace {

/// The q-quantile of a log2 histogram, reported as its bucket's upper
/// bound in milliseconds (conservative: the true latency is below it).
double HistQuantileMs(const std::array<uint64_t, 40>& buckets, uint64_t count,
                      double q) {
  if (count == 0) return 0;
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(count) + 0.5);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= target && seen > 0) {
      return static_cast<double>(uint64_t{1} << (b + 1)) / 1000.0;
    }
  }
  return static_cast<double>(uint64_t{1} << buckets.size()) / 1000.0;
}

}  // namespace

ServerStats ServerCore::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.connections_accepted = accepted_;
    s.connections_shed = conn_shed_;
    s.connections_active = active_;
    s.queries_ok = queries_ok_;
    s.queries_error = queries_error_;
    s.queries_shed = queries_shed_;
    s.statements_prepared = statements_prepared_;
    for (const auto& [sid, h] : latency_) {
      ServerStats::SessionLatency out;
      out.count = h.count;
      out.p50_ms = HistQuantileMs(h.buckets, h.count, 0.50);
      out.p99_ms = HistQuantileMs(h.buckets, h.count, 0.99);
      s.session_latency.emplace_back(sid, out);
    }
  }
  const Database::WalStats w = db_->wal_stats();
  s.wal_appends = w.wal_appends;
  s.wal_bytes = w.wal_bytes;
  s.recovery_replayed_records = w.recovery_replayed_records;
  s.checkpoints = w.checkpoints;
  s.scheduler = db_->scheduler()->stats();
  return s;
}

// ---------------------------------------------------------------------------
// ServerConnection
// ---------------------------------------------------------------------------

ServerConnection::ServerConnection(ServerCore* core,
                                   std::unique_ptr<Session> session)
    : core_(core), session_(std::move(session)) {}

ServerConnection::~ServerConnection() {
  std::lock_guard<std::mutex> lock(core_->mu_);
  --core_->active_;
}

ServerResponse ServerConnection::HandleLine(const std::string& raw) {
  const std::string line = Trim(raw);
  if (line.empty()) {
    return ErrorResponse(Status::InvalidArgument("empty command"));
  }
  std::string cmd;
  std::string rest;
  SplitCommand(line, &cmd, &rest);
  for (char& c : cmd) c = static_cast<char>(std::toupper(c));

  if (cmd == "PING") {
    return ServerResponse{"OK\n", false, false};
  }
  if (cmd == "QUIT") {
    return ServerResponse{"OK bye\n", true, false};
  }
  if (cmd == "SHUTDOWN") {
    {
      // Stop admitting immediately; the transport drains the scheduler
      // (ServerCore::Shutdown) once this response is written.
      std::lock_guard<std::mutex> lock(core_->mu_);
      core_->shutting_down_ = true;
    }
    return ServerResponse{"OK draining\n", true, true};
  }
  if (cmd == "STATS") {
    return RunStats();
  }
  if (core_->shutting_down()) {
    return ErrorResponse(Status::ShuttingDown("server is shutting down"));
  }
  if (cmd == "Q") {
    if (rest.empty()) {
      return ErrorResponse(Status::InvalidArgument("Q needs a SELECT"));
    }
    return RunRead([&] { return session_->Query(rest); });
  }
  if (cmd == "X") {
    if (rest.empty()) {
      return ErrorResponse(Status::InvalidArgument("X needs a statement"));
    }
    Status st = core_->db_->Execute(rest);
    std::lock_guard<std::mutex> lock(core_->mu_);
    if (!st.ok()) {
      ++core_->queries_error_;
      return ErrorResponse(st);
    }
    ++core_->queries_ok_;
    return ServerResponse{"OK\n", false, false};
  }
  if (cmd == "CHECKPOINT") {
    Status st = core_->db_->Checkpoint();
    std::lock_guard<std::mutex> lock(core_->mu_);
    if (!st.ok()) {
      ++core_->queries_error_;
      return ErrorResponse(st);
    }
    ++core_->queries_ok_;
    std::ostringstream os;
    os << "OK checkpoints=" << core_->db_->wal_stats().checkpoints << "\n";
    return ServerResponse{os.str(), false, false};
  }
  if (cmd == "P") {
    return RunPrepare(rest);
  }
  if (cmd == "E") {
    return RunExecute(rest);
  }
  return ErrorResponse(
      Status::Unsupported("unknown command: " + Flatten(cmd)));
}

ServerResponse ServerConnection::RunRead(
    const std::function<Result<QueryOutput>()>& run) {
  std::optional<Result<QueryOutput>> out;
  const auto start = std::chrono::steady_clock::now();
  Status admitted = core_->db_->scheduler()->SubmitAndWait(
      session_->id(), [&] { out.emplace(run()); });
  if (!admitted.ok()) {
    std::lock_guard<std::mutex> lock(core_->mu_);
    ++core_->queries_shed_;
    return ErrorResponse(admitted);
  }
  // Latency covers queueing + execution of every admitted query (errors
  // included — the client waited either way); shed queries never ran.
  core_->RecordLatency(session_->id(), ElapsedMicros(start));
  {
    std::lock_guard<std::mutex> lock(core_->mu_);
    ++(out->ok() ? core_->queries_ok_ : core_->queries_error_);
  }
  if (!out->ok()) return ErrorResponse(out->status());
  ServerResponse r;
  AppendResultLines(out->value(), &r.text);
  return r;
}

ServerResponse ServerConnection::RunPrepare(const std::string& rest) {
  std::string name;
  std::string sql;
  SplitCommand(rest, &name, &sql);
  if (!ValidName(name) || sql.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("usage: P <name> <select with ?>"));
  }
  const bool replaces = statements_.count(name) > 0;
  if (!replaces &&
      statements_.size() >=
          static_cast<size_t>(core_->opts_.quota.max_prepared_statements)) {
    return ErrorResponse(Status::QuotaExceeded(
        "prepared statement quota reached"));
  }
  Result<std::unique_ptr<PreparedStatement>> stmt = session_->Prepare(sql);
  if (!stmt.ok()) {
    std::lock_guard<std::mutex> lock(core_->mu_);
    ++core_->queries_error_;
    return ErrorResponse(stmt.status());
  }
  const int params = stmt.value()->num_params();
  statements_[name] = std::move(stmt.value());
  {
    std::lock_guard<std::mutex> lock(core_->mu_);
    ++core_->statements_prepared_;
  }
  std::ostringstream os;
  os << "OK params=" << params << "\n";
  return ServerResponse{os.str(), false, false};
}

ServerResponse ServerConnection::RunExecute(const std::string& rest) {
  std::string name;
  std::string literals;
  SplitCommand(rest, &name, &literals);
  if (!ValidName(name)) {
    return ErrorResponse(
        Status::InvalidArgument("usage: E <name> <literals>"));
  }
  auto it = statements_.find(name);
  if (it == statements_.end()) {
    return ErrorResponse(Status::NotFound("no prepared statement: " + name));
  }
  Result<std::vector<Value>> params = ParseLiteralList(literals);
  if (!params.ok()) {
    return ErrorResponse(params.status());
  }
  PreparedStatement* stmt = it->second.get();
  return RunRead([&] { return stmt->Execute(params.value()); });
}

ServerResponse ServerConnection::RunStats() {
  const ServerStats s = core_->stats();
  const PreparedCache::Stats c = core_->db_->prepared_cache()->stats();
  std::ostringstream os;
  os << "STAT connections_accepted=" << s.connections_accepted << "\n"
     << "STAT connections_shed=" << s.connections_shed << "\n"
     << "STAT connections_active=" << s.connections_active << "\n"
     << "STAT queries_ok=" << s.queries_ok << "\n"
     << "STAT queries_error=" << s.queries_error << "\n"
     << "STAT queries_shed=" << s.queries_shed << "\n"
     << "STAT statements_prepared=" << s.statements_prepared << "\n"
     << "STAT cache_table_hits=" << c.table_hits << "\n"
     << "STAT cache_table_misses=" << c.table_misses << "\n"
     << "STAT cache_invalidations=" << c.table_invalidations << "\n"
     << "STAT cache_revalidations=" << c.table_revalidations << "\n"
     << "STAT cache_evictions=" << c.size_evictions << "\n"
     << "STAT cache_inflight_waits=" << c.inflight_waits << "\n"
     << "STAT cache_bytes_used=" << c.bytes_used << "\n"
     << "STAT cache_max_bytes=" << c.max_bytes << "\n"
     << "STAT wal_appends=" << s.wal_appends << "\n"
     << "STAT wal_bytes=" << s.wal_bytes << "\n"
     << "STAT recovery_replayed_records=" << s.recovery_replayed_records
     << "\n"
     << "STAT checkpoints=" << s.checkpoints << "\n"
     << "STAT sched_workers=" << s.scheduler.workers << "\n"
     << "STAT sched_submitted=" << s.scheduler.submitted << "\n"
     << "STAT sched_completed=" << s.scheduler.completed << "\n"
     << "STAT sched_shed_overload=" << s.scheduler.shed_overload << "\n"
     << "STAT sched_shed_quota=" << s.scheduler.shed_quota << "\n"
     << "STAT sched_shed_draining=" << s.scheduler.shed_draining << "\n"
     << "STAT sched_queue_depth=" << s.scheduler.queue_depth << "\n"
     << "STAT sched_peak_queue_depth=" << s.scheduler.peak_queue_depth << "\n"
     << "STAT sched_active=" << s.scheduler.active << "\n";
  for (const auto& [sid, lat] : s.session_latency) {
    os << "STAT session_" << sid << "_queries=" << lat.count << "\n"
       << "STAT session_" << sid << "_p50_ms=" << lat.p50_ms << "\n"
       << "STAT session_" << sid << "_p99_ms=" << lat.p99_ms << "\n";
  }
  os << "OK\n";
  return ServerResponse{os.str(), false, false};
}

}  // namespace skinner
