#include "metrics.hpp"

#include <algorithm>
#include <cmath>

#include "qbase/stats.hpp"

namespace perfbench {

namespace q = qnetp;

std::vector<std::string> failed_flag_gates(const q::exp::TrialResult& r) {
  std::vector<std::string> failed;
  for (const char* flag : {"ok", "consistency_ok", "conservation_ok",
                           "leak_free", "quiescent", "occ_flat"}) {
    const bool required = std::string_view(flag) == "ok";
    if ((required || r.has(flag)) && r.scalar_or(flag, 0.0) != 1.0) {
      failed.emplace_back(flag);
    }
  }
  return failed;
}

namespace {

std::vector<double> samples_of(const q::exp::TrialResult& r,
                               const std::string& name) {
  const auto it = r.samples.find(name);
  return it == r.samples.end() ? std::vector<double>{} : it->second;
}

}  // namespace

TrialOutcome fabric_outcome(const q::exp::TrialResult& r,
                            const q::exp::ShardScalingConfig& cfg) {
  TrialOutcome o;
  o.failed_gates = failed_flag_gates(r);
  o.offered = r.scalar_or("offered", 0.0);
  o.completed = r.scalar_or("completed", 0.0);
  o.pairs = o.completed * static_cast<double>(cfg.pairs_per_request);
  o.window_s = cfg.horizon.as_seconds();
  o.latency_s = samples_of(r, "latency_s");
  o.latency_n = o.latency_s.size();
  // Every request carries the budget as its deadline and the drain
  // covers it, so each accepted or shaped request is SLO-eligible.
  o.slo_eligible = r.scalar_or("accepted", 0.0) + r.scalar_or("shaped", 0.0);
  const double budget = cfg.latency_budget.as_seconds();
  o.slo_met = static_cast<double>(
      std::count_if(o.latency_s.begin(), o.latency_s.end(),
                    [budget](double l) { return l <= budget; }));
  o.events = r.scalar_or("events", 0.0);
  return o;
}

TrialOutcome traffic_outcome(const q::exp::TrialResult& r,
                             const q::exp::TrafficConfig& cfg) {
  TrialOutcome o;
  o.failed_gates = failed_flag_gates(r);
  o.offered = r.scalar_or("offered", 0.0);
  o.completed = r.scalar_or("completed", 0.0);
  o.slo_met = r.scalar_or("slo_met", 0.0);
  o.slo_eligible = r.scalar_or("slo_eligible", 0.0);
  o.pairs = o.completed * static_cast<double>(cfg.pairs_per_request);
  o.window_s = cfg.horizon.as_seconds();
  o.latency_s = samples_of(r, "latency_res_s");
  o.latency_n = static_cast<std::size_t>(o.completed);
  if (r.has("latency_p50_s")) o.exact_p50 = r.scalar_or("latency_p50_s", 0.0);
  if (r.has("latency_p99_s")) o.exact_p99 = r.scalar_or("latency_p99_s", 0.0);
  o.events = r.scalar_or("events", 0.0);
  return o;
}

TrialOutcome chaos_outcome(const q::exp::TrialResult& r,
                           const q::exp::ChaosConfig& cfg,
                           const std::vector<double>& completions_s) {
  TrialOutcome o;
  o.failed_gates = failed_flag_gates(r);
  const double admitted = r.scalar_or("admitted", 0.0);
  o.offered = admitted + r.scalar_or("rejected", 0.0);
  o.completed = r.scalar_or("completed", 0.0);
  // chaos_trial's own SLO: a request meets it by completing.
  o.slo_met = o.completed;
  o.slo_eligible = admitted;
  o.pairs = o.completed * static_cast<double>(cfg.pairs_per_request);
  o.window_s = cfg.horizon.as_seconds();
  // Every request is submitted at the traffic start: after the warm-up
  // and one establish slot per candidate flow.
  const std::size_t flows =
      cfg.regions > 1 ? cfg.regions * cfg.n_circuits : cfg.n_circuits;
  const double start_s =
      (cfg.warmup + cfg.establish_slot * static_cast<double>(flows))
          .as_seconds();
  for (const double at : completions_s) o.latency_s.push_back(at - start_s);
  o.latency_n = o.latency_s.size();
  if (static_cast<double>(o.latency_n) != o.completed ||
      std::any_of(o.latency_s.begin(), o.latency_s.end(),
                  [](double l) { return !(l > 0.0); })) {
    o.failed_gates.emplace_back("completion_times");
  }
  o.events = r.scalar_or("events", 0.0);
  o.retransmits = r.scalar_or("retransmits", 0.0);
  return o;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto lo = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - lo;
}

double tail_quantile(std::size_t n) {
  return samples_beyond(n, 0.99) >= 10 ? 0.99 : 0.90;
}

ServiceMetrics summarize(const std::vector<TrialOutcome>& batch) {
  ServiceMetrics m;
  double offered = 0.0, completed = 0.0, met = 0.0, eligible = 0.0;
  double pairs = 0.0, window = 0.0;
  q::SampleSet pooled;
  for (const TrialOutcome& o : batch) {
    offered += o.offered;
    eligible += o.slo_eligible;
    window += o.window_s;
    if (!o.ok()) continue;
    completed += o.completed;
    met += o.slo_met;
    pairs += o.pairs;
    m.latency_n += o.latency_n;
    for (const double l : o.latency_s) pooled.add(l);
  }
  m.pairs_per_s = window > 0.0 ? pairs / window : 0.0;
  m.slo_attainment = eligible > 0.0 ? met / eligible : 0.0;
  m.request_completed_frac = offered > 0.0 ? completed / offered : 0.0;
  m.tail_q = tail_quantile(m.latency_n);
  if (pooled.empty()) return m;
  m.latency_p50_s = pooled.quantile(0.5);
  m.latency_tail_s = pooled.quantile(m.tail_q);
  if (batch.size() == 1 && batch.front().ok()) {
    const TrialOutcome& o = batch.front();
    if (o.exact_p50) m.latency_p50_s = *o.exact_p50;
    if (m.tail_q == 0.99 && o.exact_p99) m.latency_tail_s = *o.exact_p99;
  }
  return m;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
