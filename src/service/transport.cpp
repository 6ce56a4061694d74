#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace tadfa::service {
namespace {

void set_errno_error(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what + ": " + std::strerror(errno);
  }
}

/// Applies the host's I/O deadline to an accepted connection.
void apply_io_timeout(int fd, double seconds) {
  timeval deadline{};
  if (seconds > 0) {
    deadline.tv_sec = static_cast<time_t>(seconds);
    deadline.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(deadline.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
  } else {
    // Bounded sends regardless: a client that stops reading must
    // eventually error the handler's write instead of blocking it (and
    // with it, a later stop()'s join) forever.
    deadline.tv_sec = 60;
  }
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));
}

class UnixListener final : public Listener {
 public:
  explicit UnixListener(std::string path) : path_(std::move(path)) {}
  ~UnixListener() override { close_listener(); }

  bool open(std::string* error) override {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path)) {
      *error = "socket path too long: " + path_;
      return false;
    }
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

    // A stale socket file from a dead server is reclaimed; anything
    // else at that path is someone's data and refuses the bind.
    struct stat st{};
    if (::lstat(path_.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        *error = "'" + path_ + "' exists and is not a socket";
        return false;
      }
      ::unlink(path_.c_str());
    }

    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      set_errno_error(error, "socket failed");
      return false;
    }
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd_, 64) != 0) {
      set_errno_error(error, "cannot listen on '" + path_ + "'");
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }

  int fd() const override { return fd_; }
  std::string describe() const override { return "unix:" + path_; }

  void close_listener() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      ::unlink(path_.c_str());
    }
  }

 private:
  std::string path_;
  int fd_ = -1;
};

class TcpListener final : public Listener {
 public:
  TcpListener(std::string host, std::uint16_t port)
      : host_(std::move(host)), port_(port) {}
  ~TcpListener() override { close_listener(); }

  bool open(std::string* error) override {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* result = nullptr;
    const int rc = ::getaddrinfo(host_.empty() ? nullptr : host_.c_str(),
                                 std::to_string(port_).c_str(), &hints,
                                 &result);
    if (rc != 0) {
      if (error != nullptr) {
        *error = "cannot resolve '" + host_ + "': " + ::gai_strerror(rc);
      }
      return false;
    }
    std::string last_error = "no usable address for '" + host_ + "'";
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
      fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd_ < 0) {
        last_error = std::string("socket failed: ") + std::strerror(errno);
        continue;
      }
      const int on = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
      if (::bind(fd_, ai->ai_addr, ai->ai_addrlen) == 0 &&
          ::listen(fd_, 64) == 0) {
        break;
      }
      last_error = "cannot listen on " + describe() + ": " +
                   std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
    }
    ::freeaddrinfo(result);
    if (fd_ < 0) {
      if (error != nullptr) {
        *error = last_error;
      }
      return false;
    }
    // Port 0 asked the kernel for an ephemeral port; report the real one.
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        port_ = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        port_ = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    return true;
  }

  int fd() const override { return fd_; }
  std::uint16_t port() const override { return port_; }
  std::string describe() const override {
    return "tcp:" + host_ + ":" + std::to_string(port_);
  }

  void close_listener() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  std::string host_;
  std::uint16_t port_ = 0;
  int fd_ = -1;
};

}  // namespace

std::optional<TcpEndpoint> parse_host_port(const std::string& spec,
                                           std::string* error) {
  std::string host;
  std::string port_text;
  if (!spec.empty() && spec.front() == '[') {
    // "[v6::addr]:port"
    const std::size_t close = spec.find(']');
    if (close == std::string::npos || close + 1 >= spec.size() ||
        spec[close + 1] != ':') {
      if (error != nullptr) {
        *error = "expected [host]:port, got '" + spec + "'";
      }
      return std::nullopt;
    }
    host = spec.substr(1, close - 1);
    port_text = spec.substr(close + 2);
  } else {
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      if (error != nullptr) {
        *error = "expected host:port, got '" + spec + "'";
      }
      return std::nullopt;
    }
    host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  if (host.empty() || port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos ||
      port_text.size() > 5) {
    if (error != nullptr) {
      *error = "expected host:port with a numeric port, got '" + spec + "'";
    }
    return std::nullopt;
  }
  const unsigned long port = std::stoul(port_text);
  if (port > 65535) {
    if (error != nullptr) {
      *error = "port out of range in '" + spec + "'";
    }
    return std::nullopt;
  }
  TcpEndpoint endpoint;
  endpoint.host = std::move(host);
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

std::unique_ptr<Listener> make_unix_listener(std::string socket_path) {
  return std::make_unique<UnixListener>(std::move(socket_path));
}

std::unique_ptr<Listener> make_tcp_listener(std::string host,
                                            std::uint16_t port) {
  return std::make_unique<TcpListener>(std::move(host), port);
}

int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &result);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "cannot resolve '" + host + "': " + ::gai_strerror(rc);
    }
    return -1;
  }
  int fd = -1;
  std::string last_error =
      "no usable address for '" + host + ":" + std::to_string(port) + "'";
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket failed: ") + std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      break;
    }
    last_error = "cannot connect to '" + host + ":" + std::to_string(port) +
                 "': " + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    if (error != nullptr) {
      *error = last_error;
    }
    return -1;
  }
  const int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  return fd;
}

int connect_with_retry(const std::function<int()>& connect,
                       double timeout_seconds) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_seconds);
  auto backoff = std::chrono::milliseconds(10);
  constexpr auto kMaxBackoff = std::chrono::milliseconds(200);
  for (;;) {
    const int fd = connect();
    if (fd >= 0) {
      return fd;
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      return -1;
    }
    auto sleep_for =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    if (backoff < sleep_for) {
      sleep_for = backoff;
    }
    std::this_thread::sleep_for(sleep_for);
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
}

// --- ConnectionHost ----------------------------------------------------------

ConnectionHost::~ConnectionHost() { stop(); }

void ConnectionHost::add_listener(std::unique_ptr<Listener> listener) {
  listeners_.push_back(std::move(listener));
}

bool ConnectionHost::start(Handler handler, std::string* error) {
  if (started_) {
    if (error != nullptr) {
      *error = "connection host already started";
    }
    return false;
  }
  if (listeners_.empty()) {
    if (error != nullptr) {
      *error = "no listeners configured";
    }
    return false;
  }
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    if (!listeners_[i]->open(error)) {
      for (std::size_t j = 0; j < i; ++j) {
        listeners_[j]->close_listener();
      }
      return false;
    }
  }
  if (::pipe(wake_pipe_) != 0) {
    set_errno_error(error, "pipe failed");
    for (auto& listener : listeners_) {
      listener->close_listener();
    }
    return false;
  }
  handler_ = std::move(handler);
  stopping_.store(false);
  accept_thread_ = std::thread(&ConnectionHost::accept_loop, this);
  started_ = true;
  return true;
}

void ConnectionHost::stop() {
  if (!started_) {
    return;
  }
  // Phase 1: no new connections. Wake the accept loop and retire it.
  stopping_.store(true);
  const char wake = 'w';
  [[maybe_unused]] const ssize_t w = ::write(wake_pipe_[1], &wake, 1);
  accept_thread_.join();

  // Phase 2: half-close every live connection. Handlers blocked in read
  // see EOF and exit; a handler mid-request finishes and responds —
  // that is the drain.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) {
      ::shutdown(fd, SHUT_RD);
    }
  }
  for (std::thread& handler : handlers_) {
    handler.join();
  }
  handlers_.clear();
  finished_handlers_.clear();

  for (auto& listener : listeners_) {
    listener->close_listener();
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  started_ = false;
}

std::uint64_t ConnectionHost::connections_accepted() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return connections_;
}

std::uint16_t ConnectionHost::tcp_port() const {
  for (const auto& listener : listeners_) {
    if (listener->port() != 0) {
      return listener->port();
    }
  }
  return 0;
}

void ConnectionHost::accept_loop() {
  std::vector<pollfd> fds(listeners_.size() + 1);
  for (;;) {
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      fds[i] = {listeners_[i]->fd(), POLLIN, 0};
    }
    fds.back() = {wake_pipe_[0], POLLIN, 0};
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    if ((fds.back().revents & POLLIN) != 0 || stopping_.load()) {
      return;
    }
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) {
        continue;
      }
      const int fd = ::accept(listeners_[i]->fd(), nullptr, nullptr);
      if (fd < 0) {
        continue;
      }
      apply_io_timeout(fd, io_timeout_seconds_);
      reap_finished_handlers();
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      conn_fds_.push_back(fd);
      ++connections_;
      handlers_.emplace_back(&ConnectionHost::run_handler, this, fd);
    }
  }
}

void ConnectionHost::run_handler(int fd) {
  handler_(fd);
  // De-register before closing: once closed, the fd number can be
  // reused, and a concurrent stop() iterating conn_fds_ must never
  // shoot down an unrelated descriptor.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::size_t i = 0; i < conn_fds_.size(); ++i) {
      if (conn_fds_[i] == fd) {
        conn_fds_.erase(conn_fds_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    finished_handlers_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

void ConnectionHost::reap_finished_handlers() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (const std::thread::id id : finished_handlers_) {
    for (std::size_t i = 0; i < handlers_.size(); ++i) {
      if (handlers_[i].get_id() == id) {
        // The marked thread is at most a few instructions from
        // returning, so this join is effectively immediate.
        handlers_[i].join();
        handlers_.erase(handlers_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  finished_handlers_.clear();
}

}  // namespace tadfa::service
