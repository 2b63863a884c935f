//===- bnb/Arena.h - Topology recycling pool --------------------*- C++ -*-===//
///
/// \file
/// A per-solver recycling pool for `Topology` storage (the optimer
/// `MemoryManager` idiom): `BnbEngine::branch()` draws the children it
/// builds from the pool and the solvers return pruned / consumed ones,
/// so after warm-up an expansion performs zero heap allocation — the
/// copy-assignment inside `Topology::expandInto` reuses the recycled
/// vectors' capacity.
///
/// Not thread-safe by design: each worker owns its own arena (the
/// threaded solver keeps one per worker thread). Pooled objects are
/// plain `Topology` values, so destroying the arena frees everything.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_ARENA_H
#define MUTK_BNB_ARENA_H

#include "bnb/Topology.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace mutk {

/// Recycles `Topology` buffers across branch steps of one solver.
class TopologyArena {
public:
  /// \p NumSpecies sizes fresh pool entries: their node vector is
  /// reserved for a complete solve (`2n - 1` nodes) so even the first
  /// use never reallocates mid-insertion.
  explicit TopologyArena(int NumSpecies = 0) : Species(NumSpecies) {}

  /// Returns a recycled topology (buffers retained) or a fresh,
  /// pre-reserved one when the pool is dry.
  Topology acquire() {
    if (Free.empty()) {
      Topology T;
      T.reserveFor(Species);
      return T;
    }
    Topology T = std::move(Free.back());
    Free.pop_back();
    ++Reuses;
    return T;
  }

  /// Hands \p T's storage back to the pool.
  void release(Topology &&T) { Free.push_back(std::move(T)); }

  /// Topologies currently pooled, awaiting reuse.
  std::size_t pooled() const { return Free.size(); }

  /// `acquire()` calls served from the pool instead of allocating.
  std::uint64_t reuses() const { return Reuses; }

private:
  int Species = 0;
  std::vector<Topology> Free;
  std::uint64_t Reuses = 0;
};

} // namespace mutk

#endif // MUTK_BNB_ARENA_H
