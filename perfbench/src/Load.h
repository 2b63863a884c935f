//===- perfbench/src/Load.h - The benchmark's workloads ---------*- C++ -*-===//
///
/// \file
/// Entry points of the three workloads. Each builds its inputs from the
/// run's seed, measures for the run's seconds and checks every output.
/// Untraced runs fill the end-to-end metrics; traced runs replay the
/// same operations with spans and fill the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOAD_H
#define PERFBENCH_LOAD_H

#include "Common.h"

namespace pb {

/// `exact` and `compact`: one caller, `buildTree`.
bool isOfflineWorkload(const std::string &Name);
RunResult runOffline(const Args &A);

/// `service`: open-loop traffic over a Unix socket to an in-process
/// `TreeService`.
RunResult runService(const Args &A);

} // namespace pb

#endif // PERFBENCH_LOAD_H
