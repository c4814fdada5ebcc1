// skinner_serve: the SkinnerDB network server. One shared Database, one
// global Scheduler; every client connection becomes a Session multiplexed
// onto it with admission control and weighted fairness (see
// server/server.h for the line protocol).
//
//   skinner_serve [--port N] [--workers N] [--queue N] [--inflight N]
//                 [--max-sessions N] [--init FILE] [--db DIR] [--fsync]
//   skinner_serve --client HOST PORT
//
// --port 0 binds an ephemeral port; the bound port is always announced as
//   LISTENING port=<p>
// on stdout, so scripts can scrape it. --init runs the ';'-separated DDL/
// DML statements of FILE before serving (schema + data setup). The server
// exits after a client issues SHUTDOWN (graceful: admitted queries
// finish).
//
// --db DIR serves a durable database rooted at DIR: the last checkpoint
// snapshot is loaded, the write-ahead log replayed (recovery), and every
// DDL/DML is WAL-logged. --fsync additionally fsyncs each WAL append
// (FsyncPolicy::kAlways). Without --db the database is in-memory.
//
// --client: a minimal scripted client — reads protocol lines from stdin,
// sends each, prints response lines until the terminal OK/ERR line.

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "api/database.h"
#include "server/server.h"
#include "server/tcp_server.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: skinner_serve [--port N] [--workers N] [--queue N]\n"
               "                     [--inflight N] [--max-sessions N]\n"
               "                     [--init FILE] [--db DIR] [--fsync]\n"
               "       skinner_serve --client HOST PORT\n");
  return 2;
}

/// Executes the ';'-separated statements of `path` against `db`.
bool RunInitFile(skinner::Database* db, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open init file: %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string all = ss.str();
  size_t start = 0;
  while (start < all.size()) {
    size_t semi = all.find(';', start);
    size_t end = semi == std::string::npos ? all.size() : semi;
    std::string stmt = all.substr(start, end - start);
    start = end + 1;
    // Skip pure-whitespace fragments between semicolons.
    if (stmt.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    skinner::Status st = db->Execute(stmt);
    if (!st.ok()) {
      std::fprintf(stderr, "init statement failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
  }
  return true;
}

/// --client mode: scripted request/response over one connection.
int RunClient(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    hostent* he = ::gethostbyname(host.c_str());
    if (he == nullptr || he->h_addrtype != AF_INET) {
      std::fprintf(stderr, "cannot resolve host: %s\n", host.c_str());
      ::close(fd);
      return 1;
    }
    std::memcpy(&addr.sin_addr, he->h_addr_list[0], sizeof(in_addr));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::perror("connect");
    ::close(fd);
    return 1;
  }

  std::string inbuf;
  char chunk[4096];
  // Reads one '\n'-terminated response line; false on disconnect.
  auto read_line = [&](std::string* line) {
    while (true) {
      size_t nl = inbuf.find('\n');
      if (nl != std::string::npos) {
        *line = inbuf.substr(0, nl);
        inbuf.erase(0, nl + 1);
        return true;
      }
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      inbuf.append(chunk, static_cast<size_t>(n));
    }
  };
  auto write_all = [&](const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::write(fd, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  };

  std::string line;
  int rc = 0;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!write_all(line + "\n")) {
      std::fprintf(stderr, "disconnected\n");
      rc = 1;
      break;
    }
    bool closed = false;
    while (true) {
      std::string resp;
      if (!read_line(&resp)) {
        std::fprintf(stderr, "disconnected\n");
        closed = true;
        rc = 1;
        break;
      }
      std::printf("%s\n", resp.c_str());
      if (resp.rfind("OK", 0) == 0 || resp.rfind("ERR", 0) == 0) break;
    }
    if (closed) break;
    std::string head = line.substr(0, line.find_first_of(" \t"));
    for (char& c : head) c = static_cast<char>(std::toupper(c));
    if (head == "QUIT" || head == "SHUTDOWN") break;
  }
  ::close(fd);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 4711;
  int max_sessions = 64;
  std::string init_file;
  std::string db_dir;
  skinner::FsyncPolicy fsync = skinner::FsyncPolicy::kNever;
  skinner::SchedulerOptions sched;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    if (arg == "--client") {
      if (i + 2 >= argc) return Usage();
      return RunClient(argv[i + 1], std::atoi(argv[i + 2]));
    }
    if (arg == "--port") {
      if (!next_int(&port)) return Usage();
    } else if (arg == "--workers") {
      if (!next_int(&sched.num_workers)) return Usage();
    } else if (arg == "--queue") {
      int q = 0;
      if (!next_int(&q) || q <= 0) return Usage();
      sched.max_queue_depth = static_cast<size_t>(q);
    } else if (arg == "--inflight") {
      if (!next_int(&sched.max_inflight_per_session)) return Usage();
    } else if (arg == "--max-sessions") {
      if (!next_int(&max_sessions)) return Usage();
    } else if (arg == "--init") {
      if (i + 1 >= argc) return Usage();
      init_file = argv[++i];
    } else if (arg == "--db") {
      if (i + 1 >= argc) return Usage();
      db_dir = argv[++i];
    } else if (arg == "--fsync") {
      fsync = skinner::FsyncPolicy::kAlways;
    } else {
      return Usage();
    }
  }

  std::unique_ptr<skinner::Database> db;
  if (db_dir.empty()) {
    db = std::make_unique<skinner::Database>(sched);
  } else {
    auto opened = skinner::Database::Open(db_dir, fsync, sched);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s failed: %s\n", db_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    db = opened.MoveValue();
    std::printf("RECOVERED records=%llu\n",
                static_cast<unsigned long long>(
                    db->wal_stats().recovery_replayed_records));
  }
  if (!init_file.empty() && !RunInitFile(db.get(), init_file)) return 1;

  skinner::ServerOptions opts;
  opts.max_sessions = max_sessions;
  // A server exists to share: cross-query caching on by default. Every
  // connection publishes into the one cache, whose LRU byte budget bounds
  // its memory.
  opts.defaults.use_prepared_cache = true;

  skinner::ServerCore core(db.get(), opts);
  skinner::TcpServer server(&core);
  skinner::Status st = server.Start(port);
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING port=%d\n", server.port());
  std::fflush(stdout);
  server.Wait();
  std::printf("shutdown complete\n");
  return 0;
}
