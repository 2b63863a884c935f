//===- service/Transport.cpp - The socket transport of mutkd --------------===//

#include "service/Transport.h"

#include "obs/Log.h"
#include "service/Protocol.h" // MaxFrameBytes

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <iterator>
#include <cstring>
#include <system_error>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mutk;

namespace {

/// First allocation of a frame payload; later steps double what has
/// arrived, so the buffer never exceeds twice the bytes received.
constexpr std::size_t FirstPayloadStep = 64u << 10;

/// Full-buffer read. \returns `None`, `Eof` (clean close before the
/// first byte) or `Truncated` (close, error or timeout after it).
FrameError readAll(int Fd, std::uint8_t *Data, std::size_t Size,
                   bool AtFrameStart) {
  std::size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::recv(Fd, Data + Done, Size - Done, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return N == 0 && Done == 0 && AtFrameStart ? FrameError::Eof
                                                 : FrameError::Truncated;
    Done += static_cast<std::size_t>(N);
  }
  return FrameError::None;
}

/// Sends every byte of \p Parts with as few `sendmsg` calls as the
/// kernel allows (one, unless it takes a partial write).
bool sendAll(int Fd, iovec *Parts, std::size_t Count) {
  while (Count > 0) {
    msghdr Msg{};
    Msg.msg_iov = Parts;
    Msg.msg_iovlen = Count;
    ssize_t Put = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (Put < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    auto Left = static_cast<std::size_t>(Put);
    while (Count > 0 && Left >= Parts->iov_len) {
      Left -= Parts->iov_len;
      ++Parts;
      --Count;
    }
    if (Count > 0) {
      Parts->iov_base = static_cast<std::uint8_t *>(Parts->iov_base) + Left;
      Parts->iov_len -= Left;
    }
  }
  return true;
}

int failWith(std::string *Error, const std::string &What, int Fd = -1) {
  if (Error)
    *Error = What;
  if (Fd >= 0)
    ::close(Fd);
  return -1;
}

std::string errnoText(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

/// Finishes a connect that returned EINPROGRESS or EINTR: the attempt
/// keeps going in the kernel (calling connect again is unspecified), so
/// wait for writability and read the outcome from SO_ERROR. A signal
/// restarts the wait with the full timeout.
bool finishConnect(int Fd, double TimeoutSeconds) {
  pollfd P{Fd, POLLOUT, 0};
  const int WaitMs =
      TimeoutSeconds > 0 ? static_cast<int>(TimeoutSeconds * 1000.0) : -1;
  int Ready = 0;
  while ((Ready = ::poll(&P, 1, WaitMs)) < 0)
    if (errno != EINTR)
      return false;
  if (Ready == 0) {
    errno = ETIMEDOUT;
    return false;
  }
  int Status = 0;
  socklen_t Len = sizeof(Status);
  if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Status, &Len) < 0)
    return false;
  errno = Status;
  return Status == 0;
}

bool makeUnixAddress(const std::string &Path, sockaddr_un &Addr,
                     std::string *Error) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    failWith(Error, "unix socket path too long");
    return false;
  }
  Addr = {};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  return true;
}

void setOption(int Fd, int Level, int Name) {
  int One = 1;
  ::setsockopt(Fd, Level, Name, &One, sizeof(One));
}

/// socket + bind + listen. TCP listeners get SO_REUSEADDR and
/// TCP_NODELAY, which Linux copies into every accepted socket.
int listenOn(const sockaddr *Addr, socklen_t Len, std::string *Error) {
  int Fd = ::socket(Addr->sa_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return failWith(Error, errnoText("socket"));
  if (Addr->sa_family != AF_UNIX) {
    setOption(Fd, SOL_SOCKET, SO_REUSEADDR);
    setOption(Fd, IPPROTO_TCP, TCP_NODELAY);
  }
  if (::bind(Fd, Addr, Len) < 0 || ::listen(Fd, 64) < 0)
    return failWith(Error, errnoText("bind/listen"), Fd);
  return Fd;
}

} // namespace

const char *mutk::frameErrorName(FrameError Error) {
  switch (Error) {
  case FrameError::None:
    return "none";
  case FrameError::Eof:
    return "eof";
  case FrameError::Truncated:
    return "truncated";
  case FrameError::Oversized:
    return "oversized";
  case FrameError::BadVerb:
    return "bad_verb";
  case FrameError::BadPayload:
    return "bad_payload";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

FrameError mutk::readFrame(int Fd, std::vector<std::uint8_t> &Payload) {
  std::uint8_t Header[4];
  if (FrameError E = readAll(Fd, Header, sizeof(Header), true);
      E != FrameError::None)
    return E;
  std::uint32_t Length = 0;
  for (int I = 0; I < 4; ++I)
    Length |= static_cast<std::uint32_t>(Header[I]) << (8 * I);
  // Never trust the peer's length: validate before allocating, then
  // allocate only in proportion to what actually arrives.
  if (Length > MaxFrameBytes)
    return FrameError::Oversized;
  Payload.clear();
  while (Payload.size() < Length) {
    std::size_t Have = Payload.size();
    std::size_t Step = std::max(FirstPayloadStep, Have);
    Payload.resize(Have + std::min<std::size_t>(Step, Length - Have));
    if (FrameError E =
            readAll(Fd, Payload.data() + Have, Payload.size() - Have, false);
        E != FrameError::None)
      return E;
  }
  return FrameError::None;
}

bool mutk::writeFrame(int Fd, const std::vector<std::uint8_t> &Payload) {
  if (Payload.size() > MaxFrameBytes) {
    errno = EMSGSIZE;
    return false;
  }
  std::uint8_t Header[4];
  auto Length = static_cast<std::uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Header[I] = static_cast<std::uint8_t>(Length >> (8 * I));
  iovec Parts[2] = {
      {Header, sizeof(Header)},
      {const_cast<std::uint8_t *>(Payload.data()), Payload.size()}};
  return sendAll(Fd, Parts, Payload.empty() ? 1 : 2);
}

bool mutk::writeAllBytes(int Fd, const std::uint8_t *Data, std::size_t Size) {
  iovec Part{const_cast<std::uint8_t *>(Data), Size};
  return sendAll(Fd, &Part, Size == 0 ? 0 : 1);
}

//===----------------------------------------------------------------------===//
// Socket setup
//===----------------------------------------------------------------------===//

int mutk::listenUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr;
  if (!makeUnixAddress(Path, Addr, Error))
    return -1;
  ::unlink(Path.c_str()); // stale socket from a previous run
  return listenOn(reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr), Error);
}

int mutk::listenTcp(const std::string &Host, int Port, int *BoundPort,
                    std::string *Error) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return failWith(Error, "invalid address '" + Host +
                               "' (numeric IPv4 expected)");
  int Fd = listenOn(reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr), Error);
  socklen_t Len = sizeof(Addr);
  if (Fd >= 0 && BoundPort &&
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    *BoundPort = ntohs(Addr.sin_port);
  return Fd;
}

int mutk::connectUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr;
  if (!makeUnixAddress(Path, Addr, Error))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return failWith(Error, errnoText("socket"));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 &&
      (errno != EINTR || !finishConnect(Fd, 0)))
    return failWith(Error, errnoText("connect"), Fd);
  return Fd;
}

int mutk::connectTcp(const std::string &Host, int Port, double TimeoutSeconds,
                     std::string *Error) {
  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Results = nullptr;
  std::string PortText = std::to_string(Port);
  int Rc = ::getaddrinfo(Host.c_str(), PortText.c_str(), &Hints, &Results);
  if (Rc != 0)
    return failWith(Error, "resolve " + Host + ": " + ::gai_strerror(Rc));

  int Fd = -1;
  std::string LastError = "no addresses";
  for (addrinfo *A = Results; A; A = A->ai_next) {
    Fd = ::socket(A->ai_family, A->ai_socktype | SOCK_CLOEXEC, A->ai_protocol);
    if (Fd < 0) {
      LastError = std::strerror(errno);
      continue;
    }
    // Non-blocking for the connect only, so the timeout can bound it.
    int Flags = ::fcntl(Fd, F_GETFL, 0);
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
    if (::connect(Fd, A->ai_addr, A->ai_addrlen) == 0 ||
        ((errno == EINPROGRESS || errno == EINTR) &&
         finishConnect(Fd, TimeoutSeconds))) {
      ::fcntl(Fd, F_SETFL, Flags);
      setOption(Fd, IPPROTO_TCP, TCP_NODELAY);
      break;
    }
    LastError = std::strerror(errno);
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Results);
  if (Fd < 0)
    return failWith(Error, "connect " + Host + ":" + PortText + ": " +
                               LastError);
  return Fd;
}

bool mutk::setRecvTimeout(int Fd, double TimeoutSeconds) {
  timeval Tv{};
  if (TimeoutSeconds > 0) {
    Tv.tv_sec = static_cast<time_t>(TimeoutSeconds);
    Tv.tv_usec = static_cast<suseconds_t>(
        (TimeoutSeconds - static_cast<double>(Tv.tv_sec)) * 1e6);
  }
  return ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv)) == 0;
}

//===----------------------------------------------------------------------===//
// ConnectionAcceptor
//===----------------------------------------------------------------------===//

void ConnectionAcceptor::start(int Fd, Handler Run) {
  MutexLock Lock(Mu);
  if (ListenFd >= 0 || Stopping) {
    ::close(Fd);
    return;
  }
  ListenFd = Fd;
  OnConnection = std::move(Run);
  Acceptor = std::thread([this, Fd] { acceptLoop(Fd); });
}

void ConnectionAcceptor::acceptLoop(int Listener) {
  for (;;) {
    int Fd = ::accept4(Listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      if (errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
          errno != ENOMEM)
        return; // listener shut down by stop()
      // Out of fds or memory: the connection stays queued in the
      // backlog. Pause (stop() cuts it short) and retry, rather than
      // leave a daemon that never accepts again.
      obs::log(obs::LogLevel::Warn, Component, "accept failed; retrying")
          .kv("error", std::strerror(errno));
      MutexLock Lock(Mu);
      const auto Until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
      while (!Stopping &&
             Wake.waitUntil(Lock, Until) != std::cv_status::timeout) {
      }
      continue;
    }
    std::vector<std::thread> Finished;
    {
      MutexLock Lock(Mu);
      Finished = takeThreads(/*All=*/false);
    }
    // A finished thread has left Mu for good, so these joins are prompt.
    for (std::thread &T : Finished)
      T.join();
    MutexLock Lock(Mu);
    if (Stopping) {
      ::close(Fd);
      return;
    }
    auto Conn =
        Connections.insert(Connections.end(), Connection{Fd, false, {}});
    try {
      Conn->Thread = std::thread([this, Conn] { serve(Conn); });
    } catch (const std::system_error &E) {
      // Out of threads: refuse this connection, keep serving the rest.
      obs::log(obs::LogLevel::Warn, Component, "connection thread failed")
          .kv("fd", Fd)
          .kv("error", E.what());
      ::close(Fd);
      Connections.erase(Conn);
      continue;
    }
    obs::log(obs::LogLevel::Debug, Component, "connection accepted")
        .kv("fd", Fd)
        .kv("active", Connections.size());
  }
}

void ConnectionAcceptor::serve(std::list<Connection>::iterator Conn) {
  try {
    OnConnection(Conn->Fd);
  } catch (const std::exception &E) {
    // One failed conversation must not take the process down.
    obs::log(obs::LogLevel::Error, Component, "connection handler failed")
        .kv("fd", Conn->Fd)
        .kv("error", E.what());
  }
  MutexLock Lock(Mu);
  obs::log(obs::LogLevel::Debug, Component, "connection closed")
      .kv("fd", Conn->Fd);
  // Closed under Mu, so stop() cannot shut down a recycled fd.
  ::close(Conn->Fd);
  Conn->Done = true;
}

std::vector<std::thread> ConnectionAcceptor::takeThreads(bool All) {
  std::vector<std::thread> Out;
  for (auto It = Connections.begin(); It != Connections.end();) {
    if ((All || It->Done) && It->Thread.joinable())
      Out.push_back(std::move(It->Thread));
    It = It->Done ? Connections.erase(It) : std::next(It);
  }
  return Out;
}

void ConnectionAcceptor::stop() {
  std::thread Loop;
  {
    MutexLock Lock(Mu);
    Stopping = true;
    Wake.notify_all();
    // Wakes accept(); the fd is closed only after the loop has left it.
    if (ListenFd >= 0)
      ::shutdown(ListenFd, SHUT_RDWR);
    Loop = std::move(Acceptor);
  }
  if (Loop.joinable())
    Loop.join();
  std::vector<std::thread> Live;
  {
    MutexLock Lock(Mu);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    for (Connection &C : Connections)
      if (!C.Done)
        ::shutdown(C.Fd, SHUT_RDWR); // wakes a handler blocked in a read
    Live = takeThreads(/*All=*/true);
  }
  for (std::thread &T : Live)
    T.join();
  MutexLock Lock(Mu);
  Connections.clear();
}
