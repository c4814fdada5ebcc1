// The `serve-mixed` workload: ServerCore + TcpServer on 127.0.0.1 over a
// durable database opened with FsyncPolicy::kAlways and prepared-statement
// caching on, i.e. `skinner_serve --db DIR --fsync`. The JOB data (20000
// titles) is loaded and checkpointed. Four client connections each prepare
// the JOB templates, then run a closed loop; in every block of 20 requests:
//
//   18  E   a template with seeded parameter draws,
//    1  Q   a literal JOB query from a subset whose whole-query bundles
//           together exceed the 64 MiB cache,
//    1  X   a single-row UPDATE/DELETE on a table the templates join,
//
// and client 0 sends a CHECKPOINT at fixed points of the window.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <functional>

#include "api/prepared_statement.h"
#include "api/session.h"
#include "benchgen/job.h"
#include "common/scheduler.h"
#include "exec/prepared_cache.h"
#include "server/server.h"
#include "server/tcp_server.h"
#include "workloads.h"

namespace e2e {
namespace {

using skinner::Database;
using skinner::Status;

constexpr int kClients = 4;

/// The prepared JOB templates (families 1, 2, 3, 6 and 10 of JobQueries()
/// with their constants turned into `?`). Parameter kinds: k keyword,
/// y year, c country code, g genre, b budget class.
struct Template {
  const char* name;
  const char* params;
  const char* sql;
};
const Template kTemplates[] = {
    {"t1", "ky",
     "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, kind_type kt "
     "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.kind_id = kt.id "
     "AND k.keyword = ? AND t.production_year > ?"},
    {"t2", "cy",
     "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, "
     "movie_keyword mk, keyword k WHERE t.id = mc.movie_id AND "
     "mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id "
     "AND cn.country_code = ? AND t.production_year > ?"},
    {"t3", "gy",
     "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, movie_info mi, "
     "info_type it WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND "
     "t.id = mi.movie_id AND mi.info_type_id = it.id AND "
     "k.keyword = 'blockbuster' AND it.info = 'genre' AND mi.info = ? AND "
     "t.production_year > ?"},
    {"t6", "bcy",
     "SELECT COUNT(*) FROM title t, movie_info mi, info_type it, "
     "movie_companies mc, company_name cn, kind_type kt WHERE "
     "t.id = mi.movie_id AND mi.info_type_id = it.id AND t.id = mc.movie_id "
     "AND mc.company_id = cn.id AND t.kind_id = kt.id AND it.info = 'budget' "
     "AND mi.info = ? AND cn.country_code = ? AND t.production_year > ?"},
    {"t10", "kc",
     "SELECT MIN(t.production_year), MAX(t.production_year) FROM title t, "
     "movie_keyword mk, keyword k, movie_companies mc, company_name cn WHERE "
     "t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mc.movie_id AND "
     "mc.company_id = cn.id AND k.keyword = ? AND cn.country_code = ?"},
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

/// The literal subset for Q: moderate JOB queries whose bundles (about
/// 7-12 MB each at 20000 titles) together exceed the cache budget.
const char* kLiteralSubset[] = {"q02a", "q02b", "q02c", "q04a",
                                "q04b", "q08b", "q10c", "q11b"};

/// The values a parameter of kind `kind` takes.
size_t DomainSize(char kind) {
  switch (kind) {
    case 'k': return 31;  // 'blockbuster', kw_1 .. kw_30
    case 'y': return 7;   // 1950, 1960, ..., 2010
    case 'c': return 6;
    case 'g': return 8;
    default: return 2;    // 'high', 'low'
  }
}

/// Value `i` of a parameter of kind `kind`, as a protocol literal.
std::string ParamLiteral(char kind, size_t i) {
  static const char* kCountries[6] = {"[us]", "[gb]", "[de]",
                                      "[fr]", "[in]", "[jp]"};
  static const char* kGenres[8] = {"action", "drama",  "comedy",   "thriller",
                                   "sci-fi", "horror", "romance", "documentary"};
  switch (kind) {
    case 'k':
      return i == 0 ? "'blockbuster'" : "'kw_" + std::to_string(i) + "'";
    case 'y':
      return std::to_string(1950 + 10 * static_cast<int>(i));
    case 'c':
      return std::string("'") + kCountries[i] + "'";
    case 'g':
      return std::string("'") + kGenres[i] + "'";
    default:
      return i == 0 ? "'high'" : "'low'";
  }
}

/// Draws a value index: keywords skew towards the Zipf head (and
/// 'blockbuster' one time in ten), the other kinds are uniform.
size_t DrawIndex(char kind, Rng* rng) {
  if (kind != 'k') return rng->Uniform(DomainSize(kind));
  if (rng->Uniform(10) == 0) return 0;
  const double u = rng->NextDouble();
  return 1 + static_cast<size_t>(30 * u * u);
}

/// One request of the stream, in protocol form plus what checks need.
struct Request {
  enum Kind { kRead, kWrite, kCheckpoint } kind = kRead;
  std::string line;        // the protocol line sent
  std::string sql;         // literal SQL (reads) or the statement (writes)
  size_t tmpl = kNumTemplates;  // E: template index; Q: kNumTemplates
  std::string literals;    // E: the literal list
};

/// An `E` of template `t` with parameter values index(kind) for each `?`.
Request TemplateRead(size_t t, const std::function<size_t(char)>& index) {
  Request r;
  r.tmpl = t;
  std::string sql = kTemplates[t].sql;
  for (const char* p = kTemplates[t].params; *p != '\0'; ++p) {
    const std::string lit = ParamLiteral(*p, index(*p));
    r.literals += (r.literals.empty() ? "" : " ") + lit;
    sql.replace(sql.find('?'), 1, lit);
  }
  r.sql = sql;
  r.line = std::string("E ") + kTemplates[t].name + " " + r.literals;
  return r;
}

Request DrawTemplateRead(size_t t, Rng* rng) {
  return TemplateRead(t, [rng](char kind) { return DrawIndex(kind, rng); });
}

/// The seeded request mix of one client, stratified so that the shares are
/// exact rather than drawn: in every block of 20 requests, one `Q` and one
/// `X` at seeded positions and 18 `E`; templates and literal queries each
/// cycle through a seeded permutation. The seed picks the order, the
/// parameters and the write targets, never how much of each kind a run
/// does, which would otherwise dominate the spread between seeds.
class Mix {
 public:
  static constexpr uint64_t kBlock = 20;

  Mix(uint64_t seed, const std::vector<std::string>* literals, int64_t titles)
      : rng_(seed),
        literals_(literals),
        writes_(titles, DeriveSeed(seed, 7)) {}

  Request Next() {
    if (n_ % kBlock == 0) {
      q_slot_ = rng_.Uniform(kBlock);
      x_slot_ = (q_slot_ + 1 + rng_.Uniform(kBlock - 1)) % kBlock;
    }
    const uint64_t slot = n_++ % kBlock;
    Request req;
    if (slot == q_slot_) {
      req.sql = (*literals_)[NextIndex(&literal_order_, literals_->size())];
      req.line = "Q " + req.sql;
    } else if (slot == x_slot_) {
      req.kind = Request::kWrite;
      req.sql = writes_.Next();
      req.line = "X " + req.sql;
    } else {
      req = DrawTemplateRead(NextIndex(&template_order_, kNumTemplates), &rng_);
    }
    return req;
  }

 private:
  /// Pops the next index of a seeded permutation of [0, n), refilled when
  /// empty.
  size_t NextIndex(std::vector<size_t>* order, size_t n) {
    if (order->empty()) {
      for (size_t i = 0; i < n; ++i) order->push_back(i);
      for (size_t i = n; i > 1; --i) std::swap((*order)[i - 1], (*order)[rng_.Uniform(i)]);
    }
    const size_t next = order->back();
    order->pop_back();
    return next;
  }

  Rng rng_;
  const std::vector<std::string>* literals_;
  WriteGen writes_;
  uint64_t n_ = 0;
  uint64_t q_slot_ = 0;
  uint64_t x_slot_ = 0;
  std::vector<size_t> literal_order_;
  std::vector<size_t> template_order_;
};

/// A blocking line-protocol client over one TCP connection.
class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  struct Response {
    bool ok = false;
    std::vector<std::string> rows;  // ROW lines
    std::string last;  // the terminal OK/ERR line
  };

  /// Sends one line and reads the response through its OK/ERR line.
  bool Call(const std::string& line, Response* resp) {
    *resp = Response();
    const std::string out = line + "\n";
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    std::string l;
    while (ReadLine(&l)) {
      if (l.rfind("ROW", 0) == 0) {
        resp->rows.push_back(l);
        continue;
      }
      resp->last = l;
      resp->ok = l.rfind("OK", 0) == 0;
      return true;
    }
    return false;
  }

 private:
  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buf_;
};

/// A database served over TCP to kClients connections.
struct Served {
  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<skinner::ServerCore> core;
  std::unique_ptr<skinner::TcpServer> tcp;
  std::vector<std::unique_ptr<Client>> clients;

  /// Stops serving (clients first, then the transport and the core); the
  /// database stays open.
  void StopServing() {
    clients.clear();
    if (tcp != nullptr) tcp->Shutdown();
    tcp.reset();
    core.reset();
  }
  ~Served() { StopServing(); }
};

/// Rows of `out` as the server renders them, sorted.
std::vector<std::string> RowLines(const skinner::QueryResult& result) {
  std::vector<std::string> lines;
  for (const auto& row : result.rows) {
    std::string l = "ROW";
    for (size_t i = 0; i < row.size(); ++i) {
      l += i == 0 ? ' ' : '\t';
      l += skinner::EscapeField(row[i].ToString());
    }
    lines.push_back(std::move(l));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Set-up: open, load, checkpoint, serve, connect, prepare, warm up. The
/// first connection runs every template over every value of each of its
/// parameters, so the per-table artifacts the cache starts from do not
/// depend on the seed. Then every connection runs three literal queries:
/// their bundles exhaust its 16 MiB cache share, so it enters the window
/// in the state the load would soon put it in anyway (its executions serve
/// cache hits but publish nothing).
Status SetUp(const Options& opts, const std::string& dir, int64_t titles,
             const std::vector<std::string>& literals, Served* s) {
  s->dir = dir;
  RemoveTree(dir);
  auto opened = Database::Open(dir, skinner::FsyncPolicy::kAlways);
  if (!opened.ok()) return opened.status();
  s->db = opened.MoveValue();
  skinner::bench::JobSpec spec;
  spec.num_titles = titles;
  spec.seed = DeriveSeed(opts.seed, 1);
  SKINNER_RETURN_IF_ERROR(GenerateJob(s->db.get(), spec));
  SKINNER_RETURN_IF_ERROR(s->db->Checkpoint());
  skinner::ServerOptions sopts;
  sopts.defaults.use_prepared_cache = true;  // as skinner_serve
  s->core = std::make_unique<skinner::ServerCore>(s->db.get(), sopts);
  s->tcp = std::make_unique<skinner::TcpServer>(s->core.get());
  SKINNER_RETURN_IF_ERROR(s->tcp->Start(0));
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<Client>();
    if (!client->Connect(s->tcp->port())) return Status::IoError("connect failed");
    Client::Response resp;
    for (const Template& t : kTemplates) {
      if (!client->Call(std::string("P ") + t.name + " " + t.sql, &resp) ||
          !resp.ok) {
        return Status::Internal("prepare " + std::string(t.name) + ": " + resp.last);
      }
    }
    for (size_t t = 0; c == 0 && t < kNumTemplates; ++t) {
      size_t values = 0;
      for (const char* p = kTemplates[t].params; *p != '\0'; ++p) {
        values = std::max(values, DomainSize(*p));
      }
      for (size_t i = 0; i < values; ++i) {
        const Request req =
            TemplateRead(t, [i](char kind) { return i % DomainSize(kind); });
        if (!client->Call(req.line, &resp) || !resp.ok) {
          return Status::Internal("warm-up: " + resp.last);
        }
      }
    }
    for (size_t j = 0; j < 3; ++j) {
      const std::string& sql = literals[(2 * static_cast<size_t>(c) + j) % literals.size()];
      if (!client->Call("Q " + sql, &resp) || !resp.ok) {
        return Status::Internal("warm-up: " + resp.last);
      }
    }
    s->clients.push_back(std::move(client));
  }
  return Status::OK();
}

/// What one loaded window measured, over all clients.
struct Window {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> checkpoint_ms;
  uint64_t requests = 0;
  double elapsed_ms = 0;
  std::vector<Request> sample;  // every 10th request, for the replay

  double Throughput() const {
    return elapsed_ms > 0 ? 1000.0 * static_cast<double>(requests) / elapsed_ms
                          : 0;
  }
};

Window RunWindow(Served* s, const Options& opts, uint64_t stream,
                 const std::vector<std::string>& literals, int64_t titles,
                 Tracer* tracer, Report* report) {
  struct PerClient {
    std::vector<double> read_ms, write_ms, checkpoint_ms;
    std::vector<Request> sample;
    uint64_t requests = 0, attempted = 0, failed = 0;
    std::vector<std::string> errors;
  };
  std::vector<PerClient> per(kClients);
  const double window_ms = opts.seconds * 1000.0;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& me = per[static_cast<size_t>(c)];
      Client* client = s->clients[static_cast<size_t>(c)].get();
      Mix mix(DeriveSeed(opts.seed, stream + static_cast<uint64_t>(c)), &literals,
              titles);
      // Client 0 checkpoints at fixed fractions of the window.
      const std::vector<double> checkpoints =
          c == 0 ? std::vector<double>{window_ms / 3, 2 * window_ms / 3}
                 : std::vector<double>{};
      size_t next_checkpoint = 0;
      uint64_t n = 0;
      while (MillisSince(start) < window_ms) {
        Request req;
        if (next_checkpoint < checkpoints.size() &&
            MillisSince(start) >= checkpoints[next_checkpoint]) {
          ++next_checkpoint;
          req.kind = Request::kCheckpoint;
          req.line = "CHECKPOINT";
        } else {
          req = mix.Next();
        }
        static const char* kSpan[3] = {"request.read", "request.write",
                                       "request.checkpoint"};
        Client::Response resp;
        bool sent = false;
        const double ms = TimeMs([&] {
          Tracer::Scope span = tracer->Begin(kSpan[req.kind], tracer->enabled() ? tracer->NewRequestId() : 0);
          sent = client->Call(req.line, &resp);
        });
        ++me.attempted;
        if (!sent || !resp.ok) {
          ++me.failed;
          if (me.errors.size() < 3) me.errors.push_back(req.line.substr(0, 80) + " -> " + resp.last);
          if (!sent) break;
          continue;
        }
        ++me.requests;
        if (req.kind == Request::kRead) {
          me.read_ms.push_back(ms);
        } else if (req.kind == Request::kWrite) {
          me.write_ms.push_back(ms);
        } else {
          me.checkpoint_ms.push_back(ms);
        }
        if (req.kind != Request::kCheckpoint && n++ % 10 == 0) {
          me.sample.push_back(std::move(req));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window w;
  w.elapsed_ms = MillisSince(start);
  for (PerClient& me : per) {
    w.read_ms.insert(w.read_ms.end(), me.read_ms.begin(), me.read_ms.end());
    w.write_ms.insert(w.write_ms.end(), me.write_ms.begin(), me.write_ms.end());
    w.checkpoint_ms.insert(w.checkpoint_ms.end(), me.checkpoint_ms.begin(),
                           me.checkpoint_ms.end());
    w.sample.insert(w.sample.end(), me.sample.begin(), me.sample.end());
    w.requests += me.requests;
    for (uint64_t i = 0; i < me.attempted; ++i) report->CountAttempt(i >= me.failed);
    for (const std::string& e : me.errors) report->Fail("request failed: " + e);
  }
  return w;
}

void ReportEndToEnd(const Window& w, const Options& opts, Report* report) {
  const Tail read_tail = TailAt(w.read_ms, opts.quick ? 90 : 95);
  const Tail write_tail = TailAt(w.write_ms, opts.quick ? 50 : 80);
  SetMetric(report, "throughput_qps", w.Throughput());
  SetMetric(report, "latency_p50_ms", Median(w.read_ms));
  SetMetric(report, "latency_tail_ms", read_tail.ms);
  SetMetric(report, "write_p50_ms", Median(w.write_ms));
  SetMetric(report, "write_tail_ms", write_tail.ms);
  Note("window: %llu requests in %.0f ms, %.2f req/s; reads p50 %.3f ms, "
       "p%.0f %.3f ms (%zu samples, %zu beyond); writes p50 %.3f ms, p%.0f "
       "%.3f ms (%zu samples, %zu beyond); %zu checkpoints, median %.1f ms",
       static_cast<unsigned long long>(w.requests), w.elapsed_ms, w.Throughput(),
       Median(w.read_ms), read_tail.pct, read_tail.ms, read_tail.samples,
       read_tail.beyond, Median(w.write_ms), write_tail.pct, write_tail.ms,
       write_tail.samples, write_tail.beyond, w.checkpoint_ms.size(),
       Median(w.checkpoint_ms));
}

/// After the load stops: every template's E result must equal
/// Database::Query on the literal SQL, and every literal Q result must
/// equal the Volcano engine's rows.
void QuiescentCheck(Served* s, const Options& opts,
                    const std::vector<std::string>& literals, Report* report) {
  Client* client = s->clients[0].get();
  Rng rng(DeriveSeed(opts.seed, 6));
  Client::Response resp;
  for (size_t t = 0; t < kNumTemplates; ++t) {
    for (int k = 0; k < 2; ++k) {
      const Request req = DrawTemplateRead(t, &rng);
      auto want = s->db->Query(req.sql);
      if (!client->Call(req.line, &resp) || !resp.ok || !want.ok()) {
        report->Fail("quiescent " + req.line + " failed: " + resp.last);
        continue;
      }
      std::sort(resp.rows.begin(), resp.rows.end());
      if (resp.rows != RowLines(want.value().result)) {
        report->Fail(req.line + ": E rows differ from the literal query's");
      }
    }
  }
  skinner::ExecOptions volcano;
  volcano.engine = skinner::EngineKind::kVolcano;
  for (const std::string& sql : literals) {
    auto want = s->db->Query(sql, volcano);
    if (!client->Call("Q " + sql, &resp) || !resp.ok || !want.ok()) {
      report->Fail("quiescent Q failed: " + resp.last);
      continue;
    }
    std::sort(resp.rows.begin(), resp.rows.end());
    if (resp.rows != RowLines(want.value().result)) {
      report->Fail("Q rows differ from the Volcano engine's: " + sql.substr(0, 60));
    }
  }
}

/// The traced run's unloaded replay: a sample of the loaded request stream
/// through one in-process client (its own Session and statements), each
/// call under spans. Returns the median service times of reads and writes.
struct Replay {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  StageMs q_ms;  // pipeline stages of the replayed literal reads
  uint64_t q_reads = 0;
  uint64_t q_preprocess_cost = 0;
  uint64_t q_join_cost = 0;
  uint64_t reads = 0;
  uint64_t slices = 0, intermediate = 0, uct_nodes = 0, chunk_splits = 0;
  uint64_t result_rows = 0, tables_reprepared = 0;
  size_t aux_bytes_max = 0;
  double checkpoint_ms = 0;
};

Replay UnloadedReplay(Served* s, const std::vector<Request>& sample,
                      size_t limit, Tracer* tracer, Report* report) {
  Replay out;
  skinner::ServerOptions sopts;
  sopts.defaults.use_prepared_cache = true;
  std::unique_ptr<skinner::Session> session = s->db->CreateSession(sopts.defaults);
  std::vector<std::unique_ptr<skinner::PreparedStatement>> stmts;
  for (const Template& t : kTemplates) {
    auto stmt = session->Prepare(t.sql);
    if (!stmt.ok()) {
      report->Fail(std::string("replay prepare ") + t.name + ": " + stmt.status().ToString());
      return out;
    }
    stmts.push_back(stmt.MoveValue());
  }
  // The checkpoint goes first, so the replayed writes are what a reopen
  // replays from the log.
  Status checkpoint;
  out.checkpoint_ms = TimeMs([&] {
    Tracer::Scope span = tracer->Begin("txn.checkpoint", tracer->NewRequestId());
    checkpoint = s->db->Checkpoint();
  });
  if (!checkpoint.ok()) report->Fail("replay checkpoint: " + checkpoint.ToString());
  const size_t step = std::max<size_t>(1, sample.size() / std::max<size_t>(limit, 1));
  for (size_t i = 0; i < sample.size(); i += step) {
    const Request& req = sample[i];
    const uint64_t request = tracer->NewRequestId();
    if (req.kind == Request::kWrite) {
      Status st;
      out.write_ms.push_back(TimeMs([&] {
        Tracer::Scope root = tracer->Begin("replay.write", request);
        Tracer::Scope span = tracer->Begin("txn.dml", request, root.id());
        st = s->db->Execute(req.sql);
      }));
      if (!st.ok()) report->Fail("replay " + req.sql + ": " + st.ToString());
      continue;
    }
    skinner::Result<skinner::QueryOutput> res = Status::Internal("not run");
    const bool literal = req.tmpl == kNumTemplates;
    StageMs ms;
    out.read_ms.push_back(TimeMs([&] {
      Tracer::Scope root = tracer->Begin("replay.read", request);
      if (literal) {
        res = RunSelect(s->db.get(), req.sql, session->defaults(), tracer,
                        request, root.id(), &ms);
        return;
      }
      auto params = skinner::ParseLiteralList(req.literals);
      if (!params.ok()) {
        res = params.status();
        return;
      }
      Tracer::Scope span = tracer->Begin("stmt.execute", request, root.id());
      res = stmts[req.tmpl]->Execute(params.value());
    }));
    if (!res.ok()) {
      report->Fail("replay " + req.line.substr(0, 60) + ": " + res.status().ToString());
      continue;
    }
    const skinner::ExecutionStats& st = res.value().stats;
    ++out.reads;
    out.slices += st.slices;
    out.intermediate += st.intermediate_tuples;
    out.uct_nodes += st.uct_nodes;
    out.chunk_splits += st.chunk_splits;
    out.result_rows += res.value().result.rows.size();
    out.tables_reprepared += static_cast<uint64_t>(st.tables_reprepared);
    out.aux_bytes_max = std::max(out.aux_bytes_max, st.auxiliary_bytes);
    if (literal) {
      ++out.q_reads;
      out.q_ms.parse += ms.parse;
      out.q_ms.bind += ms.bind;
      out.q_ms.prepare += ms.prepare;
      out.q_ms.execute += ms.execute;
      out.q_ms.post += ms.post;
      out.q_preprocess_cost += st.preprocess_cost;
      out.q_join_cost += st.total_cost - st.preprocess_cost;
    }
  }
  return out;
}

double ServerExecP50(const skinner::ServerStats& stats) {
  std::vector<double> p50;
  for (const auto& [id, lat] : stats.session_latency) {
    if (lat.count > 0) p50.push_back(lat.p50_ms);
  }
  return Median(p50);
}

}  // namespace

void RunServeWorkload(const Options& opts, Tracer* tracer, Report* report) {
  const int64_t titles = opts.quick ? 1500 : 20000;
  Note("workload serve-mixed seed %llu: %d clients, %zu templates, %zu "
       "literal queries, fsync on every write",
       static_cast<unsigned long long>(opts.seed), kClients, kNumTemplates,
       sizeof(kLiteralSubset) / sizeof(kLiteralSubset[0]));
  std::vector<std::string> literals;
  {
    const skinner::bench::JobWorkload w = skinner::bench::JobQueries();
    for (const char* name : kLiteralSubset) {
      for (size_t i = 0; i < w.names.size(); ++i) {
        if (w.names[i] == name) literals.push_back(w.queries[i]);
      }
    }
  }

  // ---- Set-up, timed several times. Three run before the window (the
  // last is measured); two more, thrown away, run after everything else,
  // so that the median samples the host's speed over the whole run.
  std::vector<double> setup_ms;
  int next_dir = 0;
  auto set_up = [&]() {
    auto fresh = std::make_unique<Served>();
    Status st;
    setup_ms.push_back(TimeMs([&] {
      st = SetUp(opts, opts.work_dir + "/serve-db" + std::to_string(next_dir++),
                 titles, literals, fresh.get());
    }));
    if (!st.ok()) report->Fail("set-up: " + st.ToString());
    return st.ok() ? std::move(fresh) : nullptr;
  };
  auto tear_down = [](std::unique_ptr<Served> s) {
    const std::string dir = s->dir;
    s.reset();
    RemoveTree(dir);
  };
  std::unique_ptr<Served> served;
  for (int r = 0; r < (opts.quick ? 1 : 3); ++r) {
    if (served != nullptr) tear_down(std::move(served));
    served = set_up();
    if (served == nullptr) return;
  }
  Database* db = served->db.get();

  // ---- The loaded window (untraced), then the traced one.
  Tracer off(false);
  const Window plain = RunWindow(served.get(), opts, 100, literals, titles, &off, report);
  ReportEndToEnd(plain, opts, report);

  if (tracer->enabled()) {
    const skinner::PreparedCache::Stats cache_before = db->prepared_cache()->stats();
    const skinner::Scheduler::Stats sched_before = db->scheduler()->stats();
    const skinner::ServerStats server_before = served->core->stats();
    const Database::WalStats wal_before = db->wal_stats();
    const double traced_since = tracer->NowMs();
    QueueSampler sampler(db);
    const Window w = RunWindow(served.get(), opts, 200, literals, titles, tracer, report);
    const auto [mean_depth, peak_depth] = sampler.Stop();
    const skinner::PreparedCache::Stats cache_after = db->prepared_cache()->stats();
    const skinner::Scheduler::Stats sched_after = db->scheduler()->stats();
    const skinner::ServerStats server_after = served->core->stats();
    const Database::WalStats wal_after = db->wal_stats();

    const uint64_t lookups =
        (cache_after.hits + cache_after.misses + cache_after.table_hits +
         cache_after.table_misses) -
        (cache_before.hits + cache_before.misses + cache_before.table_hits +
         cache_before.table_misses);
    const uint64_t hits = (cache_after.hits + cache_after.table_hits) -
                          (cache_before.hits + cache_before.table_hits);
    SetMetric(report, "exec.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0);
    SetMetric(report, "exec.cache_evictions",
              static_cast<double>(cache_after.size_evictions - cache_before.size_evictions));
    SetMetric(report, "exec.cache_bytes_used", static_cast<double>(cache_after.bytes_used));
    SetMetric(report, "exec.cache_inflight_waits",
              static_cast<double>(cache_after.inflight_waits - cache_before.inflight_waits));
    SetMetric(report, "scheduler.mean_queue_depth", mean_depth);
    SetMetric(report, "scheduler.peak_queue_depth", peak_depth);
    SetMetric(report, "scheduler.lease_capped",
              static_cast<double>(sched_after.lease_capped - sched_before.lease_capped));
    SetMetric(report, "scheduler.pf_dispatched",
              static_cast<double>(sched_after.pf_dispatched - sched_before.pf_dispatched));
    SetMetric(report, "server.exec_p50_ms", ServerExecP50(server_after));
    SetMetric(report, "server.queries_shed",
              static_cast<double>(server_after.queries_shed - server_before.queries_shed));
    SetMetric(report, "server.cache_publish_throttled",
              static_cast<double>(server_after.cache_publish_throttled -
                                  server_before.cache_publish_throttled));
    const double writes = static_cast<double>(std::max<size_t>(w.write_ms.size(), 1));
    SetMetric(report, "txn.wal_appends",
              static_cast<double>(wal_after.wal_appends - wal_before.wal_appends));
    SetMetric(report, "txn.wal_bytes_per_write",
              static_cast<double>(wal_after.wal_bytes - wal_before.wal_bytes) / writes);

    const double plain_p50 = Median(plain.read_ms);
    const double overhead_tput =
        plain.Throughput() > 0
            ? 100.0 * (plain.Throughput() - w.Throughput()) / plain.Throughput()
            : 0;
    const double overhead_p50 =
        plain_p50 > 0 ? 100.0 * (Median(w.read_ms) - plain_p50) / plain_p50 : 0;
    SetMetric(report, "trace.overhead_throughput_pct", overhead_tput);
    SetMetric(report, "trace.overhead_p50_pct", overhead_p50);
    Note("traced window: %.2f req/s, read p50 %.3f ms; tracing overhead %.2f%% "
         "throughput, %.2f%% read p50",
         w.Throughput(), Median(w.read_ms), overhead_tput, overhead_p50);

    // Unloaded service times: the replay, after the load stopped.
    const Replay rp = UnloadedReplay(served.get(), w.sample, opts.quick ? 30 : 300,
                                     tracer, report);
    auto per = [](double v, uint64_t n) { return n > 0 ? v / static_cast<double>(n) : 0; };
    SetMetric(report, "server.read_wait_ms", Median(w.read_ms) - Median(rp.read_ms));
    SetMetric(report, "server.write_wait_ms", Median(w.write_ms) - Median(rp.write_ms));
    SetMetric(report, "sql.parse_ms", per(rp.q_ms.parse, rp.q_reads));
    SetMetric(report, "sql.bind_ms", per(rp.q_ms.bind, rp.q_reads));
    SetMetric(report, "exec.prepare_ms", per(rp.q_ms.prepare, rp.q_reads));
    SetMetric(report, "exec.preprocess_cost",
              per(static_cast<double>(rp.q_preprocess_cost), rp.q_reads));
    SetMetric(report, "exec.ns_per_cost",
              rp.q_preprocess_cost > 0
                  ? rp.q_ms.prepare * 1e6 / static_cast<double>(rp.q_preprocess_cost)
                  : 0);
    SetMetric(report, "exec.tables_reprepared",
              per(static_cast<double>(rp.tables_reprepared), rp.reads));
    SetMetric(report, "skinner.execute_ms", per(rp.q_ms.execute, rp.q_reads));
    SetMetric(report, "skinner.join_cost",
              per(static_cast<double>(rp.q_join_cost), rp.q_reads));
    SetMetric(report, "skinner.ns_per_cost",
              rp.q_join_cost > 0
                  ? rp.q_ms.execute * 1e6 / static_cast<double>(rp.q_join_cost)
                  : 0);
    SetMetric(report, "skinner.slices", per(static_cast<double>(rp.slices), rp.reads));
    SetMetric(report, "skinner.intermediate_tuples",
              per(static_cast<double>(rp.intermediate), rp.reads));
    SetMetric(report, "skinner.uct_nodes", per(static_cast<double>(rp.uct_nodes), rp.reads));
    SetMetric(report, "skinner.chunk_splits",
              per(static_cast<double>(rp.chunk_splits), rp.reads));
    SetMetric(report, "skinner.aux_bytes", static_cast<double>(rp.aux_bytes_max));
    SetMetric(report, "post.postprocess_ms", per(rp.q_ms.post, rp.q_reads));
    SetMetric(report, "post.result_rows", per(static_cast<double>(rp.result_rows), rp.reads));
    double dml = 0;
    for (double v : rp.write_ms) dml += v;
    SetMetric(report, "txn.dml_ms", per(dml, rp.write_ms.size()));
    SetMetric(report, "txn.checkpoint_ms", rp.checkpoint_ms);
    Note("unloaded replay: %zu reads (p50 %.3f ms), %zu writes (p50 %.3f ms); "
         "wait under load: reads %.3f ms, writes %.3f ms",
         rp.read_ms.size(), Median(rp.read_ms), rp.write_ms.size(),
         Median(rp.write_ms), Median(w.read_ms) - Median(rp.read_ms),
         Median(w.write_ms) - Median(rp.write_ms));
    Note("calibration row (replayed literal reads): exec %.2f ns/unit, "
         "skinner %.2f ns/unit",
         rp.q_preprocess_cost > 0
             ? rp.q_ms.prepare * 1e6 / static_cast<double>(rp.q_preprocess_cost)
             : 0,
         rp.q_join_cost > 0
             ? rp.q_ms.execute * 1e6 / static_cast<double>(rp.q_join_cost)
             : 0);
    Note("self time per layer (traced window and replay):");
    Note("  %-18s %8s %12s %12s", "span", "calls", "total ms", "self ms");
    for (const auto& [name, l] : tracer->Summarize(traced_since)) {
      Note("  %-18s %8llu %12.1f %12.1f", name.c_str(),
           static_cast<unsigned long long>(l.calls), l.total_ms, l.self_ms);
    }
  }

  // ---- Correctness after the load, then durability across a reopen.
  QuiescentCheck(served.get(), opts, literals, report);
  const std::string dir = served->dir;
  const Recovery rec = CheckRecovery(
      &served->db, dir, WriteGen::Tables(),
      7, opts, tracer, report, [&] { served->StopServing(); });
  served.reset();
  RemoveTree(dir);
  for (int r = 0; r < (opts.quick ? 1 : 2); ++r) {
    std::unique_ptr<Served> extra = set_up();
    if (extra == nullptr) return;
    tear_down(std::move(extra));
  }
  SetMetric(report, "setup_s", Median(setup_ms) / 1000.0);
  SetMetric(report, "recovery_s", rec.open_s);
  SetMetric(report, "txn.replayed_records", static_cast<double>(rec.replayed));
  Note("recovery: reopen %.3f s replaying %llu records; every acknowledged "
       "write %s",
       rec.open_s, static_cast<unsigned long long>(rec.replayed),
       report->correct() ? "recovered" : "NOT recovered");
  SetMetric(report, "peak_rss_mb", PeakRssMb());
}

}  // namespace e2e
