// End-to-end metric arithmetic: what each trial contributes (extracted
// from its TrialResult) and how a batch of trials summarises into the
// simulated-service metrics. Pure functions, so the unit tests pin them.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/shard_scaling.hpp"
#include "exp/traffic.hpp"
#include "exp/trial.hpp"

namespace perfbench {

/// What one trial contributes to the end-to-end metrics.
struct TrialOutcome {
  /// Names of the correctness gates the trial failed (empty = passed).
  std::vector<std::string> failed_gates;
  double offered = 0.0;    ///< requests offered
  double completed = 0.0;  ///< requests completed
  double slo_met = 0.0;
  double slo_eligible = 0.0;
  double pairs = 0.0;      ///< pairs delivered to completed requests
  double window_s = 0.0;   ///< simulated traffic window
  /// Completed-request latencies: all of them, or (traffic) a uniform
  /// reservoir sample of the `latency_n` completions.
  std::vector<double> latency_s;
  std::size_t latency_n = 0;
  /// Exact quantiles over all completions, where the trial exports them.
  std::optional<double> exact_p50, exact_p99;
  double events = 0.0;       ///< DES events executed
  double retransmits = 0.0;  ///< reliable-transport retransmissions

  bool ok() const { return failed_gates.empty(); }
};

/// Gates every trial flag that is present: ok, consistency_ok,
/// conservation_ok, leak_free, quiescent and occ_flat must all read 1.
std::vector<std::string> failed_flag_gates(const qnetp::exp::TrialResult& r);

TrialOutcome fabric_outcome(const qnetp::exp::TrialResult& r,
                            const qnetp::exp::ShardScalingConfig& cfg);
TrialOutcome traffic_outcome(const qnetp::exp::TrialResult& r,
                             const qnetp::exp::TrafficConfig& cfg);
/// `completions_s`: simulated completion instants of the trial's
/// completed requests (probe.hpp).
TrialOutcome chaos_outcome(const qnetp::exp::TrialResult& r,
                           const qnetp::exp::ChaosConfig& cfg,
                           const std::vector<double>& completions_s);

/// Samples strictly above the interpolated q-quantile position of n
/// sorted samples (qbase::SampleSet's convention).
std::size_t samples_beyond(std::size_t n, double q);
/// The tail percentile to report for n samples: the highest of 0.99 and
/// 0.90 with at least ten samples beyond it (0.90 when neither has).
double tail_quantile(std::size_t n);

/// The simulated-service metrics of one batch of trials.
struct ServiceMetrics {
  double pairs_per_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_tail_s = 0.0;
  double tail_q = 0.0;        ///< which percentile latency_tail_s is
  std::size_t latency_n = 0;  ///< completions behind the latency figures
  double slo_attainment = 0.0;
  /// Requests completed per request offered. Its complement, the failed
  /// share (rejected, aborted or never completed), reads 0 on workloads
  /// without overload, so the completed share is the bounded metric.
  double request_completed_frac = 0.0;
};

/// Latency quantiles are exact when the batch is one trial that exports
/// them, and otherwise taken over the pooled samples. A trial that failed
/// a gate counts all of its offered requests as failed.
ServiceMetrics summarize(const std::vector<TrialOutcome>& batch);

double median(std::vector<double> values);

}  // namespace perfbench
