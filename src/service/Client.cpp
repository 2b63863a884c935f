//===- service/Client.cpp - mutkd client library --------------------------===//

#include "service/Client.h"

#include "service/Transport.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

using namespace mutk;

namespace {

void fillError(std::string *Error, const std::string &What) {
  if (Error)
    *Error = What;
}

void fillErrno(std::string *Error, const char *What) {
  fillError(Error, std::string(What) + ": " + std::strerror(errno));
}

} // namespace

ServiceClient::~ServiceClient() { disconnect(); }

void ServiceClient::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool ServiceClient::connectUnix(const std::string &Path, std::string *Error) {
  disconnect();
  Fd = mutk::connectUnix(Path, Error);
  return Fd >= 0;
}

bool ServiceClient::connectTcp(const std::string &Host, int Port,
                               std::string *Error) {
  disconnect();
  Fd = mutk::connectTcp(Host, Port, /*TimeoutSeconds=*/0, Error);
  return Fd >= 0;
}

std::optional<Response> ServiceClient::roundTrip(const Request &R,
                                                 std::string *Error) {
  if (Fd < 0) {
    fillError(Error, "not connected");
    return std::nullopt;
  }
  if (!writeFrame(Fd, encodeRequest(R))) {
    // EPIPE here means the daemon went away between requests (writes
    // use MSG_NOSIGNAL, so the hangup surfaces as errno, not SIGPIPE).
    fillErrno(Error, "send");
    return std::nullopt;
  }
  std::vector<std::uint8_t> Payload;
  if (readFrame(Fd, Payload) != FrameError::None) {
    fillError(Error, "connection closed while awaiting response");
    return std::nullopt;
  }
  std::string DecodeError;
  std::optional<Response> Resp = decodeResponse(Payload, &DecodeError);
  if (!Resp)
    fillError(Error, "bad response: " + DecodeError);
  return Resp;
}

std::optional<BuildResponse> ServiceClient::build(const BuildRequest &Request,
                                                  std::string *Error) {
  std::optional<Response> Resp =
      roundTrip(makeBuildRequest(Request), Error);
  if (!Resp)
    return std::nullopt;
  if (!Resp->ok()) {
    // Error responses carry no build body (whether the failure was
    // protocol-level, e.g. BadFrame, or service-level, e.g. BadRequest),
    // so the outer code must be copied in — returning Resp->Build here
    // would silently report a default-constructed success.
    BuildResponse Out;
    Out.Error = Resp->Error;
    Out.Message = Resp->Message;
    return Out;
  }
  return Resp->Build;
}

std::optional<Response> ServiceClient::call(Verb V, std::string *Error) {
  Request R;
  R.V = V;
  std::optional<Response> Resp = roundTrip(R, Error);
  if (Resp && !Resp->ok()) {
    fillError(Error, Resp->Message);
    return std::nullopt;
  }
  return Resp;
}

std::optional<StatsSnapshot> ServiceClient::stats(std::string *Error) {
  std::optional<Response> Resp = call(Verb::Stats, Error);
  return Resp ? std::optional(std::move(Resp->Stats)) : std::nullopt;
}

std::optional<std::string> ServiceClient::statsJson(std::string *Error) {
  std::optional<Response> Resp = call(Verb::StatsJson, Error);
  return Resp ? std::optional(std::move(Resp->StatsJson)) : std::nullopt;
}

bool ServiceClient::ping(std::string *Error) {
  return call(Verb::Ping, Error).has_value();
}

bool ServiceClient::shutdownServer(std::string *Error) {
  return call(Verb::Shutdown, Error).has_value();
}
