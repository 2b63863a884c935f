//===- service/ResultCache.cpp - Sharded LRU solution cache ---------------===//

#include "service/ResultCache.h"

#include "support/Audit.h"

#include <algorithm>
#include <iterator>

using namespace mutk;

#if MUTK_AUDIT_ENABLED
bool ShardedLruCache::shardConsistent(const Shard &S) const {
  if (S.Index.size() != S.Lru.size() || S.Bytes > BudgetPerShard)
    return false;
  std::size_t Bytes = 0;
  for (auto It = S.Lru.begin(); It != S.Lru.end(); ++It) {
    auto Found = S.Index.find(It->Key);
    if (Found == S.Index.end() || Found->second != It ||
        It->Charge != charge(*It->Value))
      return false;
    Bytes += It->Charge;
  }
  return Bytes == S.Bytes;
}
#endif

ShardedLruCache::ShardedLruCache(std::size_t BudgetBytes, int NumShards) {
  NumShards = std::max(1, NumShards);
  Shards.reserve(static_cast<std::size_t>(NumShards));
  for (int I = 0; I < NumShards; ++I) {
    Shards.push_back(std::make_unique<Shard>());
    Shards.back()->Id = I;
  }
  BudgetPerShard = BudgetBytes / static_cast<std::size_t>(NumShards);
}

ShardedLruCache::~ShardedLruCache() {
  // The gauge sums every live cache in the process; leave it as if this
  // one never existed.
  clear();
}

std::size_t ShardedLruCache::charge(const CachedSolution &Value) {
  return Value.Bytes.capacity() +
         Value.Tree.nodeCapacity() * sizeof(PhyloNode) + EntryOverheadBytes;
}

void ShardedLruCache::setInstruments(
    const obs::CacheInstruments *Aggregate,
    std::vector<obs::CacheShardInstruments> PerShard) {
  this->Aggregate = Aggregate;
  this->PerShard = std::move(PerShard);
}

void ShardedLruCache::noteHit(const Shard &S) {
  if (Aggregate)
    Aggregate->Hits.inc();
  auto I = static_cast<std::size_t>(S.Id);
  if (I < PerShard.size() && PerShard[I].Hits)
    PerShard[I].Hits->inc();
}

void ShardedLruCache::noteMiss(const Shard &S) {
  if (Aggregate)
    Aggregate->Misses.inc();
  auto I = static_cast<std::size_t>(S.Id);
  if (I < PerShard.size() && PerShard[I].Misses)
    PerShard[I].Misses->inc();
}

void ShardedLruCache::noteEviction(const Shard &S) {
  if (Aggregate)
    Aggregate->Evictions.inc();
  auto I = static_cast<std::size_t>(S.Id);
  if (I < PerShard.size() && PerShard[I].Evictions)
    PerShard[I].Evictions->inc();
}

ShardedLruCache::Shard &ShardedLruCache::shardFor(std::uint64_t Key) {
  // The key is already an FNV hash; fold the high bits in so shard
  // selection does not just reuse the low bits the index hashes with.
  std::uint64_t Mixed = Key ^ (Key >> 32);
  return *Shards[static_cast<std::size_t>(Mixed % Shards.size())];
}

void ShardedLruCache::unlink(Shard &S, std::list<Slot>::iterator It) {
  S.Bytes -= It->Charge;
  if (Aggregate)
    Aggregate->Bytes.sub(static_cast<std::int64_t>(It->Charge));
  S.Index.erase(It->Key);
  S.Lru.erase(It);
}

ShardedLruCache::Entry
ShardedLruCache::lookup(std::uint64_t Key,
                        const std::vector<std::uint8_t> &Bytes) {
  Shard &S = shardFor(Key);
  MutexLock Lock(S.Mu);
  auto It = S.Index.find(Key);
  if (It == S.Index.end() || It->second->Value->Bytes != Bytes) {
    noteMiss(S);
    return nullptr;
  }
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  noteHit(S);
  MUTK_AUDIT(shardConsistent(S),
             "cache shard index/LRU desynchronized after lookup");
  return It->second->Value;
}

void ShardedLruCache::store(std::uint64_t Key, Entry Value) {
  std::size_t Charge = charge(*Value);
  Shard &S = shardFor(Key);
  MutexLock Lock(S.Mu);
  if (Charge > BudgetPerShard) {
    if (Aggregate)
      Aggregate->Oversized.inc();
    return;
  }
  // Replace: a colliding key overwrites (last writer wins; the bytes
  // check on lookup keeps either outcome correct).
  if (auto It = S.Index.find(Key); It != S.Index.end())
    unlink(S, It->second);
  while (S.Bytes + Charge > BudgetPerShard) {
    unlink(S, std::prev(S.Lru.end()));
    noteEviction(S);
  }
  S.Lru.push_front(Slot{Key, std::move(Value), Charge});
  S.Index.emplace(Key, S.Lru.begin());
  S.Bytes += Charge;
  if (Aggregate)
    Aggregate->Bytes.add(static_cast<std::int64_t>(Charge));
  MUTK_AUDIT(shardConsistent(S),
             "cache shard index/LRU desynchronized after store");
}

void ShardedLruCache::clear() {
  for (auto &S : Shards) {
    MutexLock Lock(S->Mu);
    if (Aggregate)
      Aggregate->Bytes.sub(static_cast<std::int64_t>(S->Bytes));
    S->Lru.clear();
    S->Index.clear();
    S->Bytes = 0;
  }
}

std::vector<std::pair<std::uint64_t, ShardedLruCache::Entry>>
ShardedLruCache::entries() const {
  std::vector<std::pair<std::uint64_t, Entry>> Out;
  for (const auto &S : Shards) {
    MutexLock Lock(S->Mu);
    // Front = most recently used; walk backwards for LRU-first order.
    for (auto It = S->Lru.rbegin(); It != S->Lru.rend(); ++It)
      Out.emplace_back(It->Key, It->Value);
  }
  return Out;
}

std::size_t ShardedLruCache::size() const {
  std::size_t Total = 0;
  for (const auto &S : Shards) {
    MutexLock Lock(S->Mu);
    Total += S->Lru.size();
  }
  return Total;
}

std::size_t ShardedLruCache::bytes() const {
  std::size_t Total = 0;
  for (const auto &S : Shards) {
    MutexLock Lock(S->Mu);
    Total += S->Bytes;
  }
  return Total;
}
