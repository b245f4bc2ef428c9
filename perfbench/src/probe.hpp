// Probes: what the end-to-end metrics need that no TrialResult exports,
// recorded by link-time wrappers present in both builds (probe_wrap.cpp).
//   - the host instant of a trial's first traffic arrival (its first
//     QnpEngine::submit_request), which ends the trial's set-up phase;
//   - marks: host instants of the trial thread's calls to
//     QnpEngine::submit_request and ShardedSimulator::run_until. The
//     simulation is deterministic, so every repeat of a trial makes the
//     same calls in the same order, and the time between two marks is
//     the same work in every repeat;
//   - the simulated completion instant of each chaos request
//     (DualProbe::head_completion, queried once per flow after the run).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "qbase/units.hpp"

namespace perfbench::probe {

/// Forget everything recorded so far and take marks on the calling
/// thread (call on the trial thread before each trial).
void begin_trial();

/// Record a mark if the calling thread is the trial thread.
void note_mark();
/// The trial thread's marks since begin_trial(), steady-clock ns.
std::vector<std::int64_t> marks_ns();

/// Record a traffic arrival; only the first one per trial is kept.
/// Thread-safe: shard worker threads submit requests.
void note_arrival();
/// Steady-clock nanoseconds of the first arrival, if there was one.
std::optional<std::int64_t> first_arrival_ns();

/// Record a completion query's answer.
void note_completion(std::optional<qnetp::TimePoint> at);
/// Simulated seconds of every completed request queried this trial.
std::vector<double> completions_s();

}  // namespace perfbench::probe
