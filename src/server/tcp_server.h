#ifndef SKINNER_SERVER_TCP_SERVER_H_
#define SKINNER_SERVER_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/server.h"

namespace skinner {

/// The thin POSIX TCP transport of skinner_serve: an accept loop handing
/// each connection to its own thread, which frames '\n'-terminated lines
/// and feeds them to a ServerConnection (server.h — where all protocol,
/// scheduling and quota logic lives).
///
/// Lifecycle: Start() binds/listens and spawns the accept thread;
/// Wait() blocks until a client's SHUTDOWN command (or Shutdown()) stopped
/// the server; Shutdown() stops accepting, drains the core (admitted
/// queries finish) and joins every connection thread. The destructor calls
/// Shutdown().
class TcpServer {
 public:
  /// Longest request line accepted, newline excluded. A connection that
  /// sends more without a newline gets `ERR INVALID line exceeds <N>
  /// bytes` and is closed, so one client cannot grow the server's memory
  /// without bound.
  static constexpr size_t kMaxLineBytes = size_t{1} << 20;

  explicit TcpServer(ServerCore* core);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  /// accepting.
  Status Start(int port);

  /// The bound port (valid after Start succeeded).
  int port() const { return port_; }

  /// Blocks until the server has been shut down (SHUTDOWN command or a
  /// concurrent Shutdown() call).
  void Wait();

  /// Graceful stop: close the listener, drain the core, join every
  /// connection thread. Idempotent, thread-safe.
  void Shutdown();

  bool shutdown_requested() const { return shutdown_requested_.load(); }

 private:
  void AcceptLoop();
  void ClientLoop(int fd);

  ServerCore* const core_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> done_{false};
  std::thread accept_thread_;
  std::mutex threads_mu_;
  std::vector<std::thread> client_threads_;
  /// Parallel to client_threads_: the connection's fd, or -1 once its
  /// thread has closed it (guarded by threads_mu_).
  std::vector<int> client_fds_;
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
};

}  // namespace skinner

#endif  // SKINNER_SERVER_TCP_SERVER_H_
