// The three workloads.  Each fills one run's Result: end-to-end metrics
// when untraced, per-layer metrics when traced.
#pragma once

#include "common.hpp"

namespace ftbench {

/// Thread counts are pinned everywhere: nothing runs at "auto".
inline constexpr std::size_t kServiceWorkers = 1;
inline constexpr std::size_t kBatchThreads = 1;
inline constexpr std::size_t kSimThreads = 1;
inline constexpr std::size_t kSearchThreads = 2;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Serving plan constants, the same for every workload.  Light and heavy
/// traffic alternate in kSlices slices; the rate ladder's steps are
/// kLadderStep apart, it is searched kLadderSearches times, and a step
/// passes only with a p99 within kP99LimitUs.  The TCP workloads' caller
/// makes kSyncCalls synchronous calls in a 20 s run.
inline constexpr std::size_t kSlices = 10;
inline constexpr double kLadderStep = 1.02;
inline constexpr std::size_t kLadderSearches = 2;
inline constexpr double kP99LimitUs = 20000;
inline constexpr std::size_t kSyncCalls = 2000;

void run_serve(const Args& args, bool wide, Result& result);
void run_atpg(const Args& args, Result& result);

}  // namespace ftbench
