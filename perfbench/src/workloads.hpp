// The benchmark's workloads and the loop that measures one of them.
//
// A run draws a fixed batch of trial seeds from the workload seed, runs
// the batch once, then repeats its first few (timed) trials until the
// time budget is spent. The simulated metrics come from the batch and
// are a pure function of the seed; every repeat must reproduce its
// digest. Host timings take each piece of each timed trial at its
// fastest repeat (see run_workload).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/trial.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::size_t batch = 1;  ///< trials per batch
  std::size_t timed = 1;  ///< leading trials of the batch that are timed
  std::function<qnetp::exp::TrialResult(std::uint64_t seed)> trial;
  /// Reads a finished trial (and the probes it left behind).
  std::function<TrialOutcome(const qnetp::exp::TrialResult&)> outcome;
  /// When set, the same batch run this way must digest identically
  /// (fabric108-sharded against one shard).
  std::function<qnetp::exp::TrialResult(std::uint64_t seed)> reference;
};

std::optional<Workload> find_workload(const std::string& name);
std::vector<std::string> workload_names();

struct RunReport {
  std::size_t attempted = 0;  ///< trials run (reference batch excluded)
  std::size_t failed = 0;     ///< trials that failed a correctness gate
  std::vector<std::string> errors;
  ServiceMetrics service;  ///< first batch
  std::uint64_t digest = 0;
  std::size_t passes = 0;  ///< the batch, then repeats of its timed trials
  std::vector<double> pass_walls;  ///< host seconds of each pass
  /// Host seconds of the timed trials, each piece of each at its fastest
  /// repeat.
  double wall_s = 0.0;
  /// Median over the timed trials of each one's fastest set-up: host
  /// seconds from trial start to its first traffic arrival.
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;

  // Per trial, over every trial run.
  trace::Totals spans;        ///< all threads, summed (not per trial)
  double unattributed_s = 0.0;  ///< trial thread time outside any span
  double cpu_per_wall = 0.0;    ///< process CPU seconds per host second
  double events = 0.0;
  double pairs = 0.0;
  double retransmits = 0.0;
};

/// Measures `w` for about `seconds` of host time: repeats stop before
/// one would overrun it, after one at least.
RunReport run_workload(const Workload& w, std::uint64_t seed, double seconds);

}  // namespace perfbench
