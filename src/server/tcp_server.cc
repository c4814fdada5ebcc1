#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

namespace skinner {

namespace {

/// write() the whole buffer, retrying on EINTR/short writes.
bool WriteAll(int fd, const std::string& data) {
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
}

}  // namespace

TcpServer::TcpServer(ServerCore* core) : core_(core) {}

TcpServer::~TcpServer() { Shutdown(); }

Status TcpServer::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed: shutting down
    }
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (shutdown_requested_.load()) {
      ::close(fd);
      break;
    }
    const size_t slot = client_fds_.size();
    client_fds_.push_back(fd);
    client_threads_.emplace_back([this, fd, slot] {
      ClientLoop(fd);
      std::lock_guard<std::mutex> inner(threads_mu_);
      client_fds_[slot] = -1;
      ::close(fd);
    });
  }
}

void TcpServer::ClientLoop(int fd) {
  Result<std::unique_ptr<ServerConnection>> conn = core_->Connect();
  if (!conn.ok()) {
    std::string err = "ERR ";
    err += StatusCodeToken(conn.status().code());
    err += ' ';
    err += conn.status().message();
    err += '\n';
    WriteAll(fd, err);
    return;
  }
  std::string buffer;
  size_t scanned = 0;  // prefix of `buffer` known to hold no '\n'
  char chunk[4096];
  while (true) {
    const size_t nl = buffer.find('\n', scanned);
    const size_t line_len = nl == std::string::npos ? buffer.size() : nl;
    if (line_len > kMaxLineBytes) {
      WriteAll(fd, "ERR INVALID line exceeds " +
                       std::to_string(kMaxLineBytes) + " bytes\n");
      break;
    }
    if (nl == std::string::npos) {
      scanned = buffer.size();
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // disconnect or shutdown
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    scanned = 0;
    ServerResponse resp = conn.value()->HandleLine(line);
    if (!WriteAll(fd, resp.text)) break;
    if (resp.shutdown) {
      shutdown_requested_.store(true);
      std::lock_guard<std::mutex> lock(shutdown_mu_);
      shutdown_cv_.notify_all();
      break;
    }
    if (resp.close) break;
  }
}

void TcpServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_.load(); });
  }
  Shutdown();
}

void TcpServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (done_) return;
    done_ = true;
    shutdown_requested_.store(true);
    shutdown_cv_.notify_all();
  }
  // Close the listener to break accept().
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain: every admitted query finishes; new ones are rejected.
  core_->Shutdown();
  // Unblock idle connection reads, then join. Client threads null their
  // fd slot before closing it, so a live slot is safe to shutdown().
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (int fd : client_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : client_threads_) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

}  // namespace skinner
