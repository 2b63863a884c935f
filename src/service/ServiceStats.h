//===- service/ServiceStats.h - Service request latency ---------*- C++ -*-===//
///
/// \file
/// The microsecond-resolution latency record behind the `Stats` verb's
/// p50/p95. The service's event counts are not kept here: `stats()`
/// reads them from the metrics registry (`obs/Instruments.h`), so they
/// are process totals. Latency stays per instance because the
/// registry's millisecond histograms put every sub-millisecond request
/// in bucket 0. `record` is two relaxed atomic adds on the hot path, and
/// p50/p95 are reconstructed from the power-of-two bucket counts.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_SERVICESTATS_H
#define MUTK_SERVICE_SERVICESTATS_H

#include "obs/Metrics.h"
#include "service/Protocol.h"

namespace mutk {

/// Millisecond latency histogram backed by an `obs::Histogram` over
/// microseconds, so sub-millisecond solves still land in distinct
/// buckets.
class LatencyHistogram {
public:
  void record(double Millis) { H.record(Millis * 1000.0); }

  /// Snapshot with every value converted back to milliseconds.
  obs::HistogramSnapshot snapshotMillis() const {
    obs::HistogramSnapshot S = H.snapshot();
    S.Sum /= 1000.0;
    S.P50 /= 1000.0;
    S.P95 /= 1000.0;
    S.P99 /= 1000.0;
    S.Max /= 1000.0;
    return S;
  }

private:
  obs::Histogram H;
};

/// The counts that accrued between two `TreeService::stats()` reads:
/// \p After's counters minus \p Before's. Since the counts are process
/// totals, this is how a test or bench isolates one phase. Queue depth,
/// cache entries and the percentiles are \p After's.
inline StatsSnapshot countsBetween(const StatsSnapshot &Before,
                                   StatsSnapshot After) {
  After.Accepted -= Before.Accepted;
  After.Completed -= Before.Completed;
  After.Failed -= Before.Failed;
  After.WholeHits -= Before.WholeHits;
  After.WholeMisses -= Before.WholeMisses;
  After.BlockHits -= Before.BlockHits;
  After.BlockMisses -= Before.BlockMisses;
  After.BlockRemoteHits -= Before.BlockRemoteHits;
  After.IncrementalApplied -= Before.IncrementalApplied;
  After.IncrementalDirty -= Before.IncrementalDirty;
  After.IncrementalClean -= Before.IncrementalClean;
  After.DeadlineExpired -= Before.DeadlineExpired;
  After.Rejected -= Before.Rejected;
  After.Shed -= Before.Shed;
  After.RateLimited -= Before.RateLimited;
  After.TierExact -= Before.TierExact;
  After.TierPipeline -= Before.TierPipeline;
  After.TierHeuristic -= Before.TierHeuristic;
  After.Coalesced -= Before.Coalesced;
  return After;
}

} // namespace mutk

#endif // MUTK_SERVICE_SERVICESTATS_H
