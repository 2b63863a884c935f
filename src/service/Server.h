//===- service/Server.h - Socket frontend for TreeService -------*- C++ -*-===//
///
/// \file
/// The client-protocol frontend of `mutkd`: decodes each request frame
/// a connection sends, dispatches it to a `TreeService`, and writes the
/// framed response back. Sockets, frames and connection threads come
/// from `service/Transport.h`; this class holds only the per-connection
/// handler. One thread per connection (connections are expected to be
/// few and long-lived — clients pipeline requests over one socket, and
/// finished threads are joined as new connections arrive); the worker
/// pool behind the service provides the actual solve concurrency.
///
/// A `Shutdown` verb is acknowledged on the wire first, then wakes
/// `waitForShutdown`, which `mutkd` uses as its run-until-told-otherwise
/// loop before it calls `stop()`.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_SERVER_H
#define MUTK_SERVICE_SERVER_H

#include "service/Service.h"
#include "service/Transport.h"
#include "support/Mutex.h"

#include <string>

namespace mutk {

/// Framed-socket server over a TreeService.
class SocketServer {
public:
  explicit SocketServer(TreeService &Service);
  ~SocketServer();

  SocketServer(const SocketServer &) = delete;
  SocketServer &operator=(const SocketServer &) = delete;

  /// Binds a Unix-domain socket at \p Path (unlinks a stale file first).
  bool listenUnix(const std::string &Path, std::string *Error = nullptr);

  /// Binds a TCP socket on \p Host. \p Port 0 asks the kernel for an
  /// ephemeral port; read it back with `port()`.
  bool listenTcp(const std::string &Host, int Port,
                 std::string *Error = nullptr);

  /// Bound TCP port (-1 before a successful `listenTcp`).
  int port() const { return BoundPort; }

  /// Starts the accept loop in a background thread. Call after one of
  /// the `listen*` calls succeeded.
  void start();

  /// Blocks until a client sends `Shutdown` or `stop()` is called.
  void waitForShutdown();

  /// Stops accepting, closes the listener and every live connection,
  /// and joins all threads. Idempotent and safe to call from several
  /// threads; the destructor calls it.
  void stop();

private:
  void serveConnection(int Fd);
  void requestShutdown();

  TreeService &Service;
  /// Serializes the lifecycle calls, whole `stop()` runs included (a
  /// signal thread and the main thread may both request shutdown).
  /// Ordered before the acceptor's lock.
  Mutex StopMu{"server.stop"};
  /// The bound listener until `start()` hands it to the acceptor.
  int ListenFd MUTK_GUARDED_BY(StopMu) = -1;
  int BoundPort = -1;
  std::string UnixPath MUTK_GUARDED_BY(StopMu);
  Mutex ShutdownMu{"server.shutdown"};
  CondVar ShutdownCv;
  bool ShutdownRequested MUTK_GUARDED_BY(ShutdownMu) = false;
  /// Last: its connection threads use the members above.
  ConnectionAcceptor Acceptor{"server"};
};

} // namespace mutk

#endif // MUTK_SERVICE_SERVER_H
