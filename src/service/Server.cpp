//===- service/Server.cpp - Socket frontend for TreeService ---------------===//

#include "service/Server.h"

#include "obs/Instruments.h"
#include "obs/Log.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>
#include <utility>

using namespace mutk;

SocketServer::SocketServer(TreeService &Service) : Service(Service) {}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::listenUnix(const std::string &Path, std::string *Error) {
  int Fd = mutk::listenUnix(Path, Error);
  if (Fd < 0)
    return false;
  MutexLock Lock(StopMu);
  ListenFd = Fd;
  UnixPath = Path;
  return true;
}

bool SocketServer::listenTcp(const std::string &Host, int Port,
                             std::string *Error) {
  int Fd = mutk::listenTcp(Host, Port, &BoundPort, Error);
  if (Fd < 0)
    return false;
  MutexLock Lock(StopMu);
  ListenFd = Fd;
  return true;
}

void SocketServer::start() {
  MutexLock Lock(StopMu);
  if (ListenFd < 0)
    return;
  Acceptor.start(std::exchange(ListenFd, -1),
                 [this](int Fd) { serveConnection(Fd); });
}

void SocketServer::serveConnection(int Fd) {
  obs::ServerInstruments &I = obs::serverInstruments();
  I.ConnectionsAccepted.inc();
  I.ConnectionsActive.add(1);
  std::vector<std::uint8_t> Payload;
  while (readFrame(Fd, Payload) == FrameError::None) {
    I.FramesRead.inc();
    std::string DecodeError;
    std::optional<Request> Req = decodeRequest(Payload, &DecodeError);
    if (!Req) {
      I.ParseErrors.inc();
      obs::log(obs::LogLevel::Warn, "server", "undecodable request frame")
          .kv("fd", Fd)
          .kv("error", DecodeError)
          .kv("bytes", Payload.size());
    }
    Response Resp =
        Req ? Service.handle(*Req)
            : makeErrorResponse(Verb::Ping, ServiceError::BadFrame,
                                DecodeError);
    if (!writeFrame(Fd, encodeResponse(Resp))) {
      // A peer that hung up before reading its response raises EPIPE
      // (writes use MSG_NOSIGNAL) — that is a normal close, not an
      // error; anything else on the write path deserves a warning.
      if (errno == EPIPE || errno == ECONNRESET)
        obs::log(obs::LogLevel::Debug, "server", "peer closed mid-write")
            .kv("fd", Fd);
      else
        obs::log(obs::LogLevel::Warn, "server", "response write failed")
            .kv("fd", Fd)
            .kv("error", std::strerror(errno));
      break;
    }
    if (Req && Req->V == Verb::Shutdown) {
      obs::log(obs::LogLevel::Info, "server", "shutdown requested")
          .kv("fd", Fd);
      requestShutdown();
      break;
    }
  }
  I.ConnectionsActive.sub(1);
}

void SocketServer::requestShutdown() {
  MutexLock Lock(ShutdownMu);
  ShutdownRequested = true;
  ShutdownCv.notify_all();
}

void SocketServer::waitForShutdown() {
  MutexLock Lock(ShutdownMu);
  while (!ShutdownRequested)
    ShutdownCv.wait(Lock);
}

void SocketServer::stop() {
  MutexLock Lock(StopMu);
  if (ListenFd >= 0) // bound but never started
    ::close(std::exchange(ListenFd, -1));
  Acceptor.stop();
  requestShutdown();
  if (!UnixPath.empty()) {
    ::unlink(UnixPath.c_str());
    UnixPath.clear();
  }
}
