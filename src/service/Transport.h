//===- service/Transport.h - The socket transport of mutkd ------*- C++ -*-===//
///
/// \file
/// The one socket layer under both `mutkd` frontends: the client
/// protocol (`service/Server.h`, `service/Client.h`) and the cluster
/// protocol (`dist/Wire.h`, `dist/Cluster.h`). It owns every raw socket
/// call in `src/` (scripts/lint.sh enforces this) and provides:
///
///  * **Frames** — a little-endian `u32` payload length followed by the
///    payload. The reader checks the length against `MaxFrameBytes`
///    before it allocates and grows the buffer as bytes arrive, so a
///    hostile length prefix costs nothing it did not send. The writer
///    puts each frame on the wire in one `sendmsg` (a header and a body
///    in two sends would meet Nagle plus delayed ACK on TCP).
///  * **Setup** — Unix and TCP listen/connect. TCP sockets are
///    `SOCK_CLOEXEC` and `TCP_NODELAY` on both ends.
///  * **`ConnectionAcceptor`** — runs a handler on one thread per
///    connection, joins finished threads as new connections arrive, and
///    on `stop()` shuts down every live connection and joins the rest.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_TRANSPORT_H
#define MUTK_SERVICE_TRANSPORT_H

#include "support/Mutex.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>
#include <vector>

namespace mutk {

/// Typed failure modes of the frame path. The transport itself reports
/// `Eof`, `Truncated` and `Oversized`; `BadVerb` and `BadPayload` belong
/// to codecs layered on top (`dist/Wire.h`).
enum class FrameError : std::uint8_t {
  None = 0,
  Eof = 1,        ///< Clean close on a frame boundary (0 header bytes).
  Truncated = 2,  ///< Close, error or read timeout mid-frame; or a payload
                  ///< shorter than its codec's fixed prelude.
  Oversized = 3,  ///< Length prefix over `MaxFrameBytes`; nothing allocated.
  BadVerb = 4,    ///< Unknown verb byte.
  BadPayload = 5, ///< Verb-specific body failed to decode.
};

/// Stable lower-case name for a `FrameError` (logs, tests).
const char *frameErrorName(FrameError Error);

/// \name Frame I/O on a connected socket (blocking, EINTR-safe).
/// @{

/// Reads one frame into \p Payload. The buffer grows in bounded steps as
/// payload bytes arrive; its capacity is kept for the next frame.
FrameError readFrame(int Fd, std::vector<std::uint8_t> &Payload);

/// Writes one frame in one `sendmsg` (`MSG_NOSIGNAL`: a hung-up peer
/// surfaces as `EPIPE`). \returns false on a socket error or a payload
/// over `MaxFrameBytes` (errno `EMSGSIZE`).
bool writeFrame(int Fd, const std::vector<std::uint8_t> &Payload);

/// Full-buffer write with the same guarantees as `writeFrame`.
bool writeAllBytes(int Fd, const std::uint8_t *Data, std::size_t Size);

/// @}

/// \name Socket setup. Each returns the fd or -1 with \p Error filled.
/// @{

/// Binds and listens on a Unix-domain socket at \p Path (a stale file
/// there is unlinked first).
int listenUnix(const std::string &Path, std::string *Error = nullptr);

/// Binds and listens on numeric IPv4 \p Host : \p Port (0 = ephemeral;
/// the bound port goes to \p BoundPort). Accepted connections inherit
/// the listener's `TCP_NODELAY`.
int listenTcp(const std::string &Host, int Port, int *BoundPort,
              std::string *Error = nullptr);

int connectUnix(const std::string &Path, std::string *Error = nullptr);

/// Connects to `Host:Port` (resolved with getaddrinfo). \p TimeoutSeconds
/// <= 0 waits as long as the kernel does. A connect interrupted by a
/// signal is finished, not retried.
int connectTcp(const std::string &Host, int Port, double TimeoutSeconds = 0,
               std::string *Error = nullptr);

/// Sets `SO_RCVTIMEO` so blocking reads fail with a timeout instead of
/// hanging on a silent peer. \p TimeoutSeconds <= 0 clears the timeout.
bool setRecvTimeout(int Fd, double TimeoutSeconds);

/// @}

/// Thread-per-connection accept loop over a listening socket. The
/// handler owns the conversation on its fd; the acceptor closes the fd
/// after the handler returns. Finished threads are joined when the next
/// connection arrives, so threads and stack mappings stay bounded by
/// the number of live connections, not by the number ever accepted.
class ConnectionAcceptor {
public:
  using Handler = std::function<void(int Fd)>;

  /// \p Component names the owner in log records ("server", "dist").
  explicit ConnectionAcceptor(std::string Component)
      : Component(std::move(Component)) {}
  ~ConnectionAcceptor() { stop(); }

  ConnectionAcceptor(const ConnectionAcceptor &) = delete;
  ConnectionAcceptor &operator=(const ConnectionAcceptor &) = delete;

  /// Takes ownership of \p ListenFd and starts accepting on a background
  /// thread, running \p OnConnection on a new thread per connection.
  void start(int ListenFd, Handler OnConnection);

  /// Stops accepting, closes the listener, shuts down every live
  /// connection and joins every thread. Idempotent; concurrent callers
  /// must serialize (the owners hold their stop locks).
  void stop();

private:
  struct Connection {
    int Fd;
    bool Done = false;
    std::thread Thread;
  };

  void acceptLoop(int Listener);
  void serve(std::list<Connection>::iterator Conn);
  /// Moves out the threads to join (of finished connections, or of all
  /// of them) and drops the entries of finished connections.
  std::vector<std::thread> takeThreads(bool All) MUTK_REQUIRES(Mu);

  const std::string Component;
  Handler OnConnection;
  Mutex Mu{"transport.acceptor"};
  /// Cuts short the accept loop's pause after running out of fds.
  CondVar Wake;
  int ListenFd MUTK_GUARDED_BY(Mu) = -1;
  bool Stopping MUTK_GUARDED_BY(Mu) = false;
  /// Entries stay until their thread is joined, so a finishing thread's
  /// iterator is valid and `stop()` never shuts down a recycled fd.
  std::list<Connection> Connections MUTK_GUARDED_BY(Mu);
  std::thread Acceptor;
};

} // namespace mutk

#endif // MUTK_SERVICE_TRANSPORT_H
