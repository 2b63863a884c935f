//===- dist/Wire.h - Cluster wire framing with typed errors -----*- C++ -*-===//
///
/// \file
/// The cluster codec of `mutkd`: every peer-to-peer message is one
/// frame of the shared transport (`service/Transport.h`: a little-endian
/// `u32` payload length, validated against `MaxFrameBytes` before any
/// allocation) whose payload is `[u8 verb][u64 seq][body...]`. Every
/// failure mode is a distinct `FrameError` so callers and tests can tell
/// a clean EOF from truncation, an oversized prefix, or a garbage verb.
///
/// `Seq` is an RPC correlation id: request/response verbs echo it, and
/// a link whose response carries the wrong `Seq` is poisoned (closed)
/// rather than trusted. One-way verbs (heartbeats, inserts) carry 0.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_DIST_WIRE_H
#define MUTK_DIST_WIRE_H

#include "service/Protocol.h"
#include "service/Transport.h"

#include <cstdint>
#include <vector>

namespace mutk::dist {

/// Frame kinds of the cluster protocol (first body byte).
enum class DistVerb : std::uint8_t {
  /// Peer control-channel opener; body = `[u32 peerId]`.
  Hello = 1,
  /// One-way liveness beacon; body = `[u32 peerId]`.
  Heartbeat = 2,
  /// Remote cache probe; body = `[u64 key][bytes identity]`.
  CacheLookup = 3,
  /// Lookup answer; body = `[u64 key][f64 cost][u8 exact]
  /// [bytes identity][tree]`.
  CacheHit = 4,
  /// Lookup answer; body = `[u64 key]`.
  CacheMiss = 5,
  /// One-way forwarded store; body as `CacheHit`.
  CacheInsert = 6,
  /// Idle peer asks for a queued job; empty body.
  StealJob = 7,
  /// Job handed to the thief; body = `[u64 token][bytes request]`.
  JobGrant = 8,
  /// Nothing to steal; empty body.
  JobNone = 9,
  /// One-way result of a stolen job; body = `[u64 token][bytes response]`.
  JobResult = 10,
  /// Opens a B&B slave session on this connection; body =
  /// `MpSessionSpec` (`dist/DistBnb.h`). Everything after is `MpMsg`.
  MpOpen = 11,
  /// One `mp` protocol message; body = `[u32 src][u32 dest][i32 tag]
  /// [payload...]`.
  MpMsg = 12,
};

/// Largest valid `DistVerb` value; anything above is a garbage tag.
inline constexpr std::uint8_t MaxDistVerb =
    static_cast<std::uint8_t>(DistVerb::MpMsg);

/// One decoded cluster frame.
struct DistFrame {
  DistVerb Verb = DistVerb::Hello;
  /// RPC correlation id; 0 for one-way frames.
  std::uint64_t Seq = 0;
  std::vector<std::uint8_t> Body;
};

/// Encodes \p Frame into one frame payload (without the `u32` length).
std::vector<std::uint8_t> encodeDistFrame(const DistFrame &Frame);

/// Decodes a frame payload. \returns `None` on success, `Truncated` on a
/// payload shorter than the verb+seq prelude, `BadVerb` on an unknown
/// verb byte.
FrameError decodeDistFrame(const std::vector<std::uint8_t> &Payload,
                           DistFrame &Out);

/// Blocking read of one frame from a connected socket (`readFrame` plus
/// `decodeDistFrame`).
FrameError readDistFrame(int Fd, DistFrame &Out);

/// Blocking write of one frame in one send. \returns false on any
/// socket error.
bool writeDistFrame(int Fd, const DistFrame &Frame);

/// Bytes \p Frame occupies on the wire (length prefix included).
std::uint64_t distFrameWireBytes(const DistFrame &Frame);

} // namespace mutk::dist

#endif // MUTK_DIST_WIRE_H
