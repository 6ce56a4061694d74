// Transport abstraction for the compile service.
//
// PR 5's CompileServer owned its Unix-domain listening socket directly;
// serving remote clients needs the same framed protocol over TCP, and a
// server that can listen on *both* at once. This header splits the
// socket plumbing out of the server:
//
//   * Listener — one bound listening socket (Unix path or TCP
//     host:port), opened lazily so construction never touches the
//     filesystem or the network. A TCP listener bound to port 0 reports
//     the kernel-chosen port via port(), which is what the tests use to
//     avoid fixed-port collisions.
//   * ConnectionHost — the accept loop, the per-connection handler
//     threads, and their lifecycle (half-close drain on stop, joining
//     finished handlers so a long-lived process does not accumulate one
//     joinable thread per connection ever served). CompileServer sits
//     behind it and never sees a socket address.
//
// Accepted connections get the host's I/O deadline applied as
// SO_RCVTIMEO/SO_SNDTIMEO before the handler runs: a peer that stalls
// mid-frame surfaces as a timeout in the frame reader instead of
// holding a handler thread forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace tadfa::service {

/// One "host:port" pair; `parse_host_port` accepts "host:port" with a
/// numeric port (0 = ephemeral) and "[v6::addr]:port" bracket syntax.
struct TcpEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

std::optional<TcpEndpoint> parse_host_port(const std::string& spec,
                                           std::string* error);

/// A bound listening socket. open() binds and listens; close_listener()
/// releases the fd and any filesystem artifact (the Unix socket path).
class Listener {
 public:
  virtual ~Listener() = default;
  virtual bool open(std::string* error) = 0;
  /// -1 until open() succeeds.
  virtual int fd() const = 0;
  /// The bound TCP port (meaningful after open(); 0 for Unix sockets).
  virtual std::uint16_t port() const { return 0; }
  virtual std::string describe() const = 0;
  virtual void close_listener() = 0;
};

/// A Unix-domain listener. A stale socket file left by a dead server is
/// reclaimed on open(); anything else at the path refuses the bind.
std::unique_ptr<Listener> make_unix_listener(std::string socket_path);

/// A TCP listener (SO_REUSEADDR; port 0 binds an ephemeral port that
/// port() reports after open()).
std::unique_ptr<Listener> make_tcp_listener(std::string host,
                                            std::uint16_t port);

/// Connects to a TCP endpoint (TCP_NODELAY set: the protocol is
/// request/response frames, not a stream worth coalescing). -1 on
/// failure with `error`.
int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* error);

/// Calls `connect` (connect_tcp or connect_unix bound to an endpoint)
/// with bounded exponential backoff (10 ms, 20 ms, ... capped at
/// 200 ms) until it returns a connected fd or `timeout_seconds` of
/// budget is spent, so a client raced against server startup wins.
/// A budget of 0 makes one attempt. Returns the fd, or -1 with the last
/// attempt's error left where `connect` put it.
int connect_with_retry(const std::function<int()>& connect,
                       double timeout_seconds);

/// Owns listeners and per-connection handler threads.
///
/// start() opens every listener and spawns one accept thread polling
/// them all; each accepted connection runs `handler(fd)` on its own
/// thread. stop() stops accepting, half-closes every live connection
/// (a handler blocked in read sees EOF and exits; a handler mid-request
/// finishes and responds — that is the drain), and joins everything.
/// The handler must not close the fd; the host closes it when the
/// handler returns.
class ConnectionHost {
 public:
  using Handler = std::function<void(int fd)>;

  ConnectionHost() = default;
  ~ConnectionHost();
  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;

  /// Call before start(). The host takes ownership.
  void add_listener(std::unique_ptr<Listener> listener);

  /// Read/write deadline applied to every accepted connection
  /// (SO_RCVTIMEO/SO_SNDTIMEO). <= 0 keeps a 60 s send-only deadline so
  /// a client that stops reading can never wedge a handler forever.
  void set_io_timeout(double seconds) { io_timeout_seconds_ = seconds; }

  /// Opens every listener and spawns the accept thread. On failure,
  /// already-opened listeners are closed again.
  bool start(Handler handler, std::string* error);
  /// Graceful drain; safe to call twice.
  void stop();

  bool started() const { return started_; }
  std::uint64_t connections_accepted() const;
  const std::vector<std::unique_ptr<Listener>>& listeners() const {
    return listeners_;
  }
  /// The first listener reporting a nonzero TCP port (0 if none).
  std::uint16_t tcp_port() const;

 private:
  void accept_loop();
  /// Joins handler threads that have announced completion, so a
  /// long-lived host does not pile up joinable threads.
  void reap_finished_handlers();
  void run_handler(int fd);

  std::vector<std::unique_ptr<Listener>> listeners_;
  Handler handler_;
  double io_timeout_seconds_ = 0;
  int wake_pipe_[2] = {-1, -1};
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  /// Guarded by conn_mu_: handler threads, their live socket fds, the
  /// ids of finished handlers awaiting a join, and the accept counter.
  mutable std::mutex conn_mu_;
  std::vector<std::thread> handlers_;
  std::vector<int> conn_fds_;
  std::vector<std::thread::id> finished_handlers_;
  std::uint64_t connections_ = 0;
};

}  // namespace tadfa::service
