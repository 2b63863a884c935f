//===- service/ResultCache.h - Sharded LRU solution cache -------*- C++ -*-===//
///
/// \file
/// The memoization layer of the tree-construction service: a sharded LRU
/// cache from canonical matrix fingerprints (`matrix/Fingerprint.h`) to
/// solved trees in canonical leaf labels. One cache instance holds both
/// whole-matrix results and per-condensed-block subtrees (the service
/// salts the two key spaces apart), so repeated or overlapping queries
/// skip branch-and-bound entirely.
///
/// The cache is bounded by bytes, not entries: a whole-matrix entry
/// carries the canonical bytes of its matrix (16 KB at 64 species, 16 MB
/// at 2048) while a two-species block entry is a few hundred bytes, so an
/// entry count bounds neither memory nor what stays resident.
///
/// Sharding bounds lock contention: a key maps to one of `NumShards`
/// independent LRU lists, each behind its own mutex, so concurrent
/// workers rarely serialize. Hash collisions are handled by storing the
/// canonical bytes with each entry and comparing them on lookup — a
/// colliding key is a miss, never a wrong tree.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_RESULTCACHE_H
#define MUTK_SERVICE_RESULTCACHE_H

#include "obs/Instruments.h"
#include "support/Audit.h"
#include "support/Mutex.h"
#include "tree/PhyloTree.h"

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace mutk {

/// A cached solution: the tree is stored in *canonical* leaf labels (the
/// maxmin order of the matrix it solves), names stripped; `Bytes` is the
/// canonical form that produced the key, kept for collision checks.
struct CachedSolution {
  PhyloTree Tree;
  double Cost = 0.0;
  bool Exact = true;
  /// Block-tier entry (per-condensed-block subtree) rather than a
  /// whole-matrix result. The key spaces are already salted apart; this
  /// flag rides along so persistence and cluster transport can keep the
  /// namespace without reverse-engineering the key.
  bool Block = false;
  std::vector<std::uint8_t> Bytes;
};

/// Sharded LRU map `fingerprint -> CachedSolution`, bounded by bytes and
/// safe for concurrent lookup/store from any number of threads. Entries
/// are immutable and shared: a hit hands out the stored entry itself, so
/// neither the tree nor the (up to MBs of) key bytes are copied under the
/// shard lock, and an evicted entry stays alive for whoever still holds it.
class ShardedLruCache {
public:
  using Entry = std::shared_ptr<const CachedSolution>;

  /// \p BudgetBytes is the *total* byte budget, split evenly across
  /// \p NumShards. A budget of 0 stores nothing.
  explicit ShardedLruCache(std::size_t BudgetBytes, int NumShards = 8);
  ~ShardedLruCache();

  ShardedLruCache(const ShardedLruCache &) = delete;
  ShardedLruCache &operator=(const ShardedLruCache &) = delete;

  /// The bytes \p Value is charged against the budget: the capacity of
  /// its key bytes and tree nodes plus a fixed per-entry overhead.
  static std::size_t charge(const CachedSolution &Value);

  /// Returns the entry for \p Key whose stored bytes equal \p Bytes,
  /// refreshing its recency; null (a miss) otherwise.
  Entry lookup(std::uint64_t Key, const std::vector<std::uint8_t> &Bytes);

  /// Inserts or replaces the entry under \p Key, evicting the shard's
  /// least-recently-used entries until it fits. An entry whose charge
  /// exceeds a shard's share of the budget is not stored (and counted
  /// once as oversized); any entry already under \p Key stays.
  void store(std::uint64_t Key, Entry Value);
  void store(std::uint64_t Key, CachedSolution Value) {
    store(Key, std::make_shared<const CachedSolution>(std::move(Value)));
  }

  /// Drops every entry (the attached counters keep their totals).
  void clear();

  /// Every entry, least-recently-used first (so replaying the list
  /// through `store` reproduces the recency order). Used by the
  /// persistence layer to compact the cache into a snapshot file.
  std::vector<std::pair<std::uint64_t, Entry>> entries() const;

  /// Attaches the counters that record hits, misses, evictions and
  /// oversized refusals and the resident-bytes gauge: the aggregate set
  /// plus one labeled trio per shard (`Shards.size()` entries expected;
  /// extras ignored). Attach before the first store: the cache keeps no
  /// counts of its own, so events before attachment are not recorded.
  void setInstruments(const obs::CacheInstruments *Aggregate,
                      std::vector<obs::CacheShardInstruments> PerShard);

  std::size_t size() const;
  /// Resident charge of all entries (never above the budget).
  std::size_t bytes() const;

private:
  /// Bookkeeping charged to every entry on top of its heap buffers: the
  /// entry object, its shared-pointer control block, the LRU list node
  /// and the index node.
  static constexpr std::size_t EntryOverheadBytes = 192;

  struct Slot {
    std::uint64_t Key = 0;
    Entry Value;
    std::size_t Charge = 0;
  };

  struct Shard {
    int Id = 0;
    mutable Mutex Mu{"service.cache.shard"};
    /// Front = most recently used.
    std::list<Slot> Lru MUTK_GUARDED_BY(Mu);
    std::unordered_map<std::uint64_t, std::list<Slot>::iterator> Index
        MUTK_GUARDED_BY(Mu);
    std::size_t Bytes MUTK_GUARDED_BY(Mu) = 0;
  };

  Shard &shardFor(std::uint64_t Key);

  void noteHit(const Shard &S);
  void noteMiss(const Shard &S);
  void noteEviction(const Shard &S);
  /// Removes \p It from \p S and returns its charge to the budget.
  void unlink(Shard &S, std::list<Slot>::iterator It) MUTK_REQUIRES(S.Mu);

#if MUTK_AUDIT_ENABLED
  /// Shard structural invariants, checked under the shard lock: the
  /// index mirrors the LRU list one-to-one, the byte count is the sum of
  /// the charges and the budget is respected.
  bool shardConsistent(const Shard &S) const MUTK_REQUIRES(S.Mu);
#endif

  std::vector<std::unique_ptr<Shard>> Shards;
  const obs::CacheInstruments *Aggregate = nullptr;
  std::vector<obs::CacheShardInstruments> PerShard;
  std::size_t BudgetPerShard;
};

} // namespace mutk

#endif // MUTK_SERVICE_RESULTCACHE_H
