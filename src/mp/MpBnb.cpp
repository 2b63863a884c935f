//===- mp/MpBnb.cpp - Message-passing master/slave B&B ---------------------===//

#include "mp/MpBnb.h"

#include "bnb/Search.h"
#include "mp/Communicator.h"
#include "mp/Serialize.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <thread>

using namespace mutk;

const char *mutk::mpTagName(int Tag) {
  switch (Tag) {
  case MpTagInit:
    return "Init";
  case MpTagWork:
    return "Work";
  case MpTagWorkRequest:
    return "WorkRequest";
  case MpTagDonation:
    return "Donation";
  case MpTagSolution:
    return "Solution";
  case MpTagUbUpdate:
    return "UbUpdate";
  case MpTagNeedWork:
    return "NeedWork";
  case MpTagTerminate:
    return "Terminate";
  case MpTagStats:
    return "Stats";
  case MpTagStealRequest:
    return "StealRequest";
  case MpTagStealReply:
    return "StealReply";
  case MpTagStealGrant:
    return "StealGrant";
  default:
    return "?";
  }
}

namespace {

std::vector<std::uint8_t> encodeSolution(double Cost, const Topology &T) {
  ByteWriter Writer;
  Writer.writeF64(Cost);
  for (std::uint8_t Byte : encodeTopology(T))
    Writer.writeU8(Byte);
  return Writer.take();
}

std::vector<std::uint8_t> encodeStats(const BnbStats &Stats,
                                      const WorkerStats &Worker) {
  ByteWriter Writer;
  Writer.writeU64(Stats.Branched);
  Writer.writeU64(Stats.Generated);
  Writer.writeU64(Stats.PrunedByBound);
  Writer.writeU64(Stats.PrunedByThreeThree);
  Writer.writeU64(Stats.UbUpdates);
  Writer.writeU64(Worker.Branched);
  Writer.writeU64(Worker.PulledFromGlobal);
  Writer.writeU64(Worker.DonatedToGlobal);
  Writer.writeU64(Worker.UbUpdates);
  Writer.writeU64(Worker.StolenFromPeers);
  Writer.writeU64(Worker.DonatedToPeers);
  Writer.writeU64(Worker.PeerUbBroadcasts);
  Writer.writeU64(Stats.BoundEvals);
  return Writer.take();
}

/// The inverse of `encodeStats`.
bool decodeStats(const std::vector<std::uint8_t> &Payload, BnbStats &Stats,
                 WorkerStats &Worker) {
  ByteReader Reader(Payload);
  return Reader.readU64(Stats.Branched) && Reader.readU64(Stats.Generated) &&
         Reader.readU64(Stats.PrunedByBound) &&
         Reader.readU64(Stats.PrunedByThreeThree) &&
         Reader.readU64(Stats.UbUpdates) && Reader.readU64(Worker.Branched) &&
         Reader.readU64(Worker.PulledFromGlobal) &&
         Reader.readU64(Worker.DonatedToGlobal) &&
         Reader.readU64(Worker.UbUpdates) &&
         Reader.readU64(Worker.StolenFromPeers) &&
         Reader.readU64(Worker.DonatedToPeers) &&
         Reader.readU64(Worker.PeerUbBroadcasts) &&
         Reader.readU64(Stats.BoundEvals);
}

} // namespace

WorkerStats mutk::runMpSlave(MpEndpoint &Self, const BnbOptions &Options,
                             const MpProtocolOptions &Proto) {
  BnbStats Stats;
  WorkerStats Worker;

  // Wait for Init: the relabeled matrix and the starting upper bound.
  // A Terminate before Init means the master solved a trivial instance
  // without distributing anything. Relayed peer frames can also land
  // before Init: the master's main thread writes Init to each worker in
  // turn while its reader threads relay worker-to-worker traffic onto
  // the same links, so a fast worker that comes up dry can have its
  // StealRequest (or an incumbent broadcast) forwarded to a peer that
  // has not seen Init yet. Those frames are answered conservatively
  // here — a steal is refused (the thief blocks on the reply, so it
  // must always get one), bounds and donation pleas are folded into the
  // post-Init state.
  DistanceMatrix Relabeled;
  double KnownUb = 0.0;
  bool PreInitNeedWork = false;
  double PreInitUb = std::numeric_limits<double>::infinity();
  for (;;) {
    Message Init = Self.recv();
    if (Init.Tag == MpTagTerminate) {
      Self.send(0, MpTagStats, encodeStats(Stats, Worker));
      return Worker;
    }
    if (Init.Tag == MpTagStealRequest) {
      ByteWriter Reply;
      Reply.writeU8(0);
      Self.send(Init.Source, MpTagStealReply, Reply.take());
      continue;
    }
    if (Init.Tag == MpTagUbUpdate) {
      ByteReader Reader(Init.Payload);
      double Ub;
      if (Reader.readF64(Ub))
        PreInitUb = std::min(PreInitUb, Ub);
      continue;
    }
    if (Init.Tag == MpTagNeedWork) {
      PreInitNeedWork = true;
      continue;
    }
    assert(Init.Tag == MpTagInit && "first message must be Init");
    ByteReader Reader(Init.Payload);
    double Ub;
    bool OkUb = Reader.readF64(Ub);
    assert(OkUb && "malformed Init payload");
    (void)OkUb;
    std::vector<std::uint8_t> MatrixBytes(Init.Payload.begin() + 8,
                                          Init.Payload.end());
    auto Decoded = decodeMatrix(MatrixBytes);
    assert(Decoded && "malformed Init matrix");
    Relabeled = std::move(*Decoded);
    KnownUb = std::min(Ub, PreInitUb);
    break;
  }
  // The worker's engine must share the master's label space exactly:
  // the shipped matrix is already maxmin-ordered, so skip relabeling.
  BnbOptions SlaveOptions = Options;
  SlaveOptions.InitialUpperBound = KnownUb;
  SlaveOptions.AssumeMaxminOrdered = true;
  BnbEngine Engine(Relabeled, SlaveOptions);
  Expander Step(Engine);
  const double Eps = Options.Epsilon;
  const int NumWorkers = Self.size() - 1;

  // Back = best. Work from the master goes to the front: it is a dealt
  // seed (dealt best first, so the best one ends at the back) or arrives
  // while the pool is empty.
  std::deque<Topology> Local;
  bool DonateRequested = PreInitNeedWork;
  // Cumulative count of work items received (master Work messages and
  // granted steals); shipped inside every WorkRequest so the master can
  // recognize stale requests (a request sent while granted work was
  // still in flight).
  std::uint64_t WorkReceived = 0;
  // True while this worker has an outstanding StealRequest. At most one
  // at a time, and it always waits for the reply before asking the
  // master — that is what keeps stolen work visible to the termination
  // protocol (see MpBnb.h).
  bool StealInFlight = false;
  // One steal attempt per dry spell; reset whenever new work arrives.
  bool TriedSteal = false;
  std::uint64_t VictimCursor = static_cast<std::uint64_t>(Self.rank());

  auto pickVictim = [&]() -> int {
    for (;;) {
      int V = 1 + static_cast<int>(VictimCursor++ %
                                   static_cast<std::uint64_t>(NumWorkers));
      if (V != Self.rank())
        return V;
    }
  };

  auto announceIncumbent = [&](double Cost, const Topology &T) {
    Self.send(0, MpTagSolution, encodeSolution(Cost, T));
    if (Proto.PeerUbBroadcast) {
      ByteWriter Writer;
      Writer.writeF64(Cost);
      for (int Peer = 1; Peer <= NumWorkers; ++Peer)
        if (Peer != Self.rank()) {
          Self.send(Peer, MpTagUbUpdate, Writer.bytes());
          ++Worker.PeerUbBroadcasts;
        }
    }
  };

  auto handle = [&](const Message &Msg) -> bool /*terminate?*/ {
    switch (Msg.Tag) {
    case MpTagUbUpdate: {
      // From the master or (peer broadcast mode) directly from a peer;
      // either way the local bound cache keeps the min of everything
      // heard so far.
      ByteReader Reader(Msg.Payload);
      double Ub;
      if (Reader.readF64(Ub))
        KnownUb = std::min(KnownUb, Ub);
      return false;
    }
    case MpTagNeedWork:
      DonateRequested = true;
      return false;
    case MpTagWork: {
      auto T = decodeTopology(Msg.Payload);
      assert(T && "malformed Work payload");
      Local.push_front(std::move(*T));
      ++Worker.PulledFromGlobal;
      ++WorkReceived;
      TriedSteal = false;
      return false;
    }
    case MpTagStealRequest: {
      // A dry peer asks for work. Grant the *front* of the deque (the
      // worst, shallowest node — the one donation would ship too) when
      // we can spare it and it is within the depth bound; shallow nodes
      // represent large subtrees, so they are the ones worth moving.
      bool CanGrant =
          Local.size() > 1 &&
          (Proto.StealDepthBound <= 0 ||
           Local.front().numPlaced() <= Proto.StealDepthBound);
      ByteWriter Reply;
      if (CanGrant) {
        // Report the grant to the master *first*: FIFO on this channel
        // guarantees the master learns of it before any later idle
        // report from this worker, keeping termination safe.
        ByteWriter Grant;
        Grant.writeU32(static_cast<std::uint32_t>(Msg.Source));
        Self.send(0, MpTagStealGrant, Grant.take());
        Reply.writeU8(1);
        for (std::uint8_t Byte : encodeTopology(Local.front()))
          Reply.writeU8(Byte);
        Local.pop_front();
        ++Worker.DonatedToPeers;
      } else {
        Reply.writeU8(0);
      }
      Self.send(Msg.Source, MpTagStealReply, Reply.take());
      return false;
    }
    case MpTagStealReply: {
      assert(StealInFlight && "unsolicited StealReply");
      StealInFlight = false;
      ByteReader Reader(Msg.Payload);
      std::uint8_t Granted = 0;
      bool Ok = Reader.readU8(Granted);
      assert(Ok && "malformed StealReply payload");
      (void)Ok;
      if (Granted) {
        std::vector<std::uint8_t> TopoBytes(Msg.Payload.begin() + 1,
                                            Msg.Payload.end());
        auto T = decodeTopology(TopoBytes);
        assert(T && "malformed StealReply topology");
        Local.push_back(std::move(*T));
        ++Worker.StolenFromPeers;
        ++WorkReceived;
        TriedSteal = false;
      }
      return false;
    }
    case MpTagTerminate:
      return true;
    default:
      assert(false && "unexpected message tag at slave");
      return false;
    }
  };

  auto finish = [&]() -> WorkerStats {
    Self.send(0, MpTagStats, encodeStats(Stats, Worker));
    return Worker;
  };

  for (;;) {
    // Drain pending control traffic.
    while (auto Msg = Self.tryRecv())
      if (handle(*Msg))
        return finish();

    if (DonateRequested && Local.size() > 1) {
      // The paper's donation step: ship the worst local node (front).
      Self.send(0, MpTagDonation, encodeTopology(Local.front()));
      Local.pop_front();
      ++Worker.DonatedToGlobal;
      DonateRequested = false;
    }

    if (Local.empty()) {
      if (Proto.WorkStealing && NumWorkers > 1 && !TriedSteal) {
        TriedSteal = true;
        Self.send(pickVictim(), MpTagStealRequest);
        StealInFlight = true;
        // Block until the reply (victims always answer, even while they
        // are themselves waiting for work).
        while (StealInFlight) {
          Message Msg = Self.recv();
          if (handle(Msg))
            return finish();
        }
        if (!Local.empty())
          continue;
      }
      ByteWriter Writer;
      Writer.writeU64(WorkReceived);
      Self.send(0, MpTagWorkRequest, Writer.take());
      // Block until work or termination arrives.
      for (;;) {
        Message Msg = Self.recv();
        bool Terminate = handle(Msg);
        if (Terminate)
          return finish();
        if (Msg.Tag == MpTagWork)
          break;
      }
      continue;
    }

    Topology Current = std::move(Local.back());
    Local.pop_back();
    bool Branched = Step.step(
        std::move(Current), KnownUb, Stats,
        [&](const Topology &Child) {
          double Cost = Child.cost();
          if (Cost < KnownUb - Eps) {
            KnownUb = Cost;
            ++Worker.UbUpdates;
            ++Stats.UbUpdates;
            announceIncumbent(Cost, Child);
          }
        },
        [&Local](BranchedChild &&Child) {
          Local.push_back(std::move(Child.Node));
        });
    if (Branched)
      ++Worker.Branched;
  }
}

MpMutResult mutk::runMpMaster(MpEndpoint &Self, const DistanceMatrix &M,
                              const BnbOptions &Options,
                              const MpProtocolOptions &Proto) {
  (void)Proto; // the master's side of the protocol is extension-agnostic
  assert(Self.rank() == 0 && "master must run on rank 0");
  const int NumWorkers = Self.size() - 1;
  assert(NumWorkers >= 1 && "need at least one worker rank");
  assert(!Options.CollectAllOptimal &&
         "CollectAllOptimal is not supported by the message-passing solver");

  MpMutResult Result;
  Result.Workers.resize(static_cast<std::size_t>(NumWorkers));

  BnbStats &Stats = Result.Stats;
  // Folds one worker's final Stats message into the result. Its
  // UbUpdates are not added: the master counts the solutions it accepts.
  int StatsCollected = 0;
  auto absorbStats = [&](const Message &Msg) {
    BnbStats S;
    WorkerStats W;
    bool Ok = decodeStats(Msg.Payload, S, W);
    assert(Ok && "malformed Stats payload");
    (void)Ok;
    Stats.Branched += S.Branched;
    Stats.Generated += S.Generated;
    Stats.PrunedByBound += S.PrunedByBound;
    Stats.PrunedByThreeThree += S.PrunedByThreeThree;
    Stats.BoundEvals += S.BoundEvals;
    Result.Workers[static_cast<std::size_t>(Msg.Source - 1)] = W;
    ++StatsCollected;
  };

  if (solveTrivial(M, Result)) {
    // Every exit path collects the final Stats so slaves always unblock.
    Self.broadcast(MpTagTerminate);
    while (StatsCollected < NumWorkers) {
      Message Msg = Self.recv();
      if (Msg.Tag == MpTagStats)
        absorbStats(Msg);
    }
    return Result;
  }

  BnbEngine Engine(M, Options);
  const double Eps = Options.Epsilon;
  Incumbent Inc(Engine);
  std::vector<Topology> Seeds =
      Expander(Engine).seed(NumWorkers, Inc, Stats);

  // Init every worker with the relabeled matrix and UB.
  {
    ByteWriter Writer;
    Writer.writeF64(Inc.Ub);
    std::vector<std::uint8_t> InitPayload = Writer.take();
    std::vector<std::uint8_t> MatrixBytes =
        encodeMatrix(Engine.relabeledMatrix());
    InitPayload.insert(InitPayload.end(), MatrixBytes.begin(),
                       MatrixBytes.end());
    for (int W = 1; W <= NumWorkers; ++W)
      Self.send(W, MpTagInit, InitPayload);
  }

  // Credit counters per worker rank: master Work grants plus reported
  // peer-steal grants. A WorkRequest carrying a smaller received-count
  // than this is stale (its work is still in flight).
  std::vector<std::uint64_t> Expected(static_cast<std::size_t>(NumWorkers) + 1,
                                      0);

  // Deal the sorted frontier cyclically (Step 6 of the paper).
  dealSeeds(Engine, Seeds, NumWorkers, [&](int W, Topology &&T) {
    ++Expected[static_cast<std::size_t>(W) + 1];
    Self.send(W + 1, MpTagWork, encodeTopology(T));
  });

  // Coordinator loop.
  std::deque<Topology> GlobalPool;
  std::deque<int> PendingRequesters;
  bool Terminating = false;
  while (StatsCollected < NumWorkers) {
    Message Msg = Self.recv();
    switch (Msg.Tag) {
    case MpTagSolution: {
      ByteReader Reader(Msg.Payload);
      double Cost;
      bool Ok = Reader.readF64(Cost);
      assert(Ok && "malformed Solution payload");
      (void)Ok;
      if (Cost < Inc.Ub - Eps) {
        std::vector<std::uint8_t> TopoBytes(Msg.Payload.begin() + 8,
                                            Msg.Payload.end());
        auto T = decodeTopology(TopoBytes);
        assert(T && "malformed Solution topology");
        Inc.offer(*T, Eps); // the decoded cost is bit-identical to Cost
        ++Stats.UbUpdates;
        ByteWriter Writer;
        Writer.writeF64(Cost);
        Self.broadcast(MpTagUbUpdate, Writer.bytes());
      }
      break;
    }
    case MpTagDonation: {
      auto T = decodeTopology(Msg.Payload);
      assert(T && "malformed Donation payload");
      if (!PendingRequesters.empty()) {
        int Dest = PendingRequesters.front();
        PendingRequesters.pop_front();
        ++Expected[static_cast<std::size_t>(Dest)];
        Self.send(Dest, MpTagWork, encodeTopology(*T));
      } else {
        GlobalPool.push_back(std::move(*T));
      }
      break;
    }
    case MpTagStealGrant: {
      // A victim moved one of its nodes to a thief. Credit the thief so
      // its next WorkRequest (sent only after it drains the stolen
      // node) is not mistaken for a stale one.
      ByteReader Reader(Msg.Payload);
      std::uint32_t Thief = 0;
      bool Ok = Reader.readU32(Thief);
      assert(Ok && Thief >= 1 &&
             Thief <= static_cast<std::uint32_t>(NumWorkers) &&
             "malformed StealGrant payload");
      (void)Ok;
      ++Expected[static_cast<std::size_t>(Thief)];
      break;
    }
    case MpTagWorkRequest: {
      ByteReader Reader(Msg.Payload);
      std::uint64_t Received = 0;
      bool Ok = Reader.readU64(Received);
      assert(Ok && "malformed WorkRequest payload");
      (void)Ok;
      if (Received < Expected[static_cast<std::size_t>(Msg.Source)])
        break; // stale: granted work is still in flight to this worker
      if (!GlobalPool.empty()) {
        ++Expected[static_cast<std::size_t>(Msg.Source)];
        Self.send(Msg.Source, MpTagWork, encodeTopology(GlobalPool.front()));
        GlobalPool.pop_front();
        break;
      }
      PendingRequesters.push_back(Msg.Source);
      if (static_cast<int>(PendingRequesters.size()) == NumWorkers) {
        // Every computing node is idle and the pool is dry: FIFO
        // channels guarantee no donation is still in flight.
        if (!Terminating) {
          Terminating = true;
          Self.broadcast(MpTagTerminate);
        }
      } else if (!Terminating) {
        Self.broadcast(MpTagNeedWork);
      }
      break;
    }
    case MpTagStats:
      absorbStats(Msg);
      break;
    default:
      assert(false && "unexpected message tag at master");
      break;
    }
  }

  finishResult(Engine, M, Inc, /*Publish=*/false, Result);
  return Result;
}

MpMutResult mutk::solveMutMessagePassing(const DistanceMatrix &M,
                                         int NumWorkers,
                                         const BnbOptions &Options,
                                         const MpProtocolOptions &Proto) {
  assert(NumWorkers >= 1 && "need at least one worker rank");

  Communicator World(NumWorkers + 1);
  Communicator::Endpoint Master = World.endpoint(0);

  std::vector<std::thread> Threads;
  Threads.reserve(static_cast<std::size_t>(NumWorkers));
  for (int W = 1; W <= NumWorkers; ++W)
    Threads.emplace_back([&World, W, &Options, &Proto] {
      Communicator::Endpoint Self = World.endpoint(W);
      runMpSlave(Self, Options, Proto);
    });

  MpMutResult Result = runMpMaster(Master, M, Options, Proto);

  for (std::thread &T : Threads)
    T.join();

  Result.MessagesSent = World.messagesSent();
  Result.BytesSent = World.bytesSent();
  Result.Traffic = World.trafficByTag();
  return Result;
}
