#include "workloads.hpp"

#include <algorithm>
#include <ctime>
#include <fstream>
#include <limits>

#include "exp/summary.hpp"
#include "probe.hpp"

namespace perfbench {

namespace q = qnetp;
using q::exp::TrialResult;

namespace {

// Trials per batch: enough that the simulated metrics (the latency tail
// above all) vary by well under their bounds from seed to seed. Timed
// trials: the first few of the batch, small enough that a run repeats
// them often (see run_workload).
constexpr std::size_t kFabricBatch = 16, kFabricTimed = 4;
constexpr std::size_t kTrafficBatch = 1, kTrafficTimed = 1;
constexpr std::size_t kChaosBatch = 32, kChaosTimed = 8;
// Passes per run, at least: the whole batch, then one repeat.
constexpr std::size_t kMinPasses = 2;

q::exp::ShardScalingConfig fabric_config(std::size_t shards) {
  q::exp::ShardScalingConfig cfg;  // 4 regions x 3x9 grids, 52 circuits
  cfg.shards = shards;
  return cfg;
}

Workload fabric_workload(std::string name, std::size_t shards) {
  const auto cfg = fabric_config(shards);
  Workload w;
  w.name = std::move(name);
  w.batch = kFabricBatch;
  w.timed = kFabricTimed;
  w.trial = [cfg](std::uint64_t seed) {
    return q::exp::shard_scaling_trial(cfg, seed);
  };
  w.outcome = [cfg](const TrialResult& r) { return fabric_outcome(r, cfg); };
  if (shards > 1) {
    const auto one = fabric_config(1);
    w.reference = [one](std::uint64_t seed) {
      return q::exp::shard_scaling_trial(one, seed);
    };
  }
  return w;
}

// bench/traffic_soak's poisson-grid3-c2-be: sustained overload with a
// best-effort mix.
Workload traffic_workload() {
  q::exp::TrafficConfig cfg;
  cfg.family = q::exp::TopologyFamily::grid;
  cfg.size = 3;
  cfg.n_circuits = 2;
  cfg.arrivals.kind = q::exp::ArrivalKind::poisson;
  cfg.arrivals.rate = 20.0;
  cfg.best_effort_fraction = 0.3;
  cfg.pairs_per_request = 4;
  cfg.slo.latency_budget = q::Duration::seconds(5);
  cfg.horizon = q::Duration::seconds(300);
  cfg.warmup = q::Duration::seconds(30);
  Workload w;
  w.name = "traffic-overload";
  w.batch = kTrafficBatch;
  w.timed = kTrafficTimed;
  w.trial = [cfg](std::uint64_t seed) {
    return q::exp::traffic_trial(cfg, seed);
  };
  w.outcome = [cfg](const TrialResult& r) { return traffic_outcome(r, cfg); };
  return w;
}

// bench/chaos_soak's regions4 point: 4 x (2x3) grids, default faults,
// reliable transport, link-state routing.
Workload chaos_workload() {
  q::exp::ChaosConfig cfg;
  cfg.family = q::exp::TopologyFamily::grid;
  cfg.size = 3;
  cfg.regions = 4;
  cfg.region_rows = 2;
  cfg.region_cols = 3;
  cfg.n_circuits = 2;
  Workload w;
  w.name = "chaos-regions4";
  w.batch = kChaosBatch;
  w.timed = kChaosTimed;
  w.trial = [cfg](std::uint64_t seed) {
    return q::exp::chaos_trial(cfg, seed);
  };
  w.outcome = [cfg](const TrialResult& r) {
    return chaos_outcome(r, cfg, probe::completions_s());
  };
  return w;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
// process started by a larger parent would report the parent's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

// Host seconds between consecutive instants of [start, marks..., end].
std::vector<double> pieces(std::int64_t start_ns,
                           const std::vector<std::int64_t>& marks_ns,
                           std::int64_t end_ns) {
  std::vector<double> out;
  out.reserve(marks_ns.size() + 1);
  std::int64_t prev = start_ns;
  for (const std::int64_t m : marks_ns) {
    out.push_back(1e-9 * static_cast<double>(m - prev));
    prev = m;
  }
  out.push_back(1e-9 * static_cast<double>(end_ns - prev));
  return out;
}

// Folds one repeat's pieces into the fastest seen so far; false when the
// repeat was cut into a different number of pieces.
bool keep_fastest(std::vector<double>& best, const std::vector<double>& now) {
  if (best.empty()) {
    best = now;
    return true;
  }
  if (best.size() != now.size()) return false;
  for (std::size_t k = 0; k < best.size(); ++k) {
    best[k] = std::min(best[k], now[k]);
  }
  return true;
}

std::uint64_t digest_of(const std::vector<TrialResult>& results) {
  return q::exp::SummaryAccumulator::aggregate(results).digest();
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"fabric108", "fabric108-sharded", "traffic-overload",
          "chaos-regions4"};
}

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "fabric108") return fabric_workload(name, 1);
  if (name == "fabric108-sharded") return fabric_workload(name, 4);
  if (name == "traffic-overload") return traffic_workload();
  if (name == "chaos-regions4") return chaos_workload();
  return std::nullopt;
}

RunReport run_workload(const Workload& w, std::uint64_t seed, double seconds) {
  RunReport rep;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < w.batch; ++i) {
    seeds.push_back(q::exp::trial_seed(seed, i));
  }

  std::optional<std::uint64_t> reference_digest;
  if (w.reference) {
    std::vector<TrialResult> results;
    for (const std::uint64_t s : seeds) results.push_back(w.reference(s));
    reference_digest = digest_of(results);
  }

  // The first pass runs the whole batch: it yields the simulated metrics
  // and the digest. Later passes repeat only the timed trials. Host time
  // is taken piece by piece: a trial's marks (probe.hpp) cut it into
  // pieces that are the same work in every repeat, and each piece counts
  // at its fastest repeat. The host is shared; its speed flips between
  // two levels every second or so, and a slow piece measures the
  // neighbours rather than the simulator.
  std::vector<std::vector<double>> best_pieces(w.timed);
  constexpr double kUnset = std::numeric_limits<double>::infinity();
  std::vector<double> best_setup(w.timed, kUnset);
  std::optional<std::uint64_t> timed_digest;
  std::int64_t unattributed_ns = 0;
  const trace::Totals spans_before = trace::collect();
  const double cpu_before = process_cpu_s();
  const std::int64_t start_ns = trace::now_ns();
  double elapsed_s = 0.0;
  do {
    const std::size_t n = rep.passes == 0 ? w.batch : w.timed;
    std::vector<TrialResult> results;
    std::vector<TrialOutcome> outcomes;
    std::int64_t pass_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      probe::begin_trial();
      const std::int64_t covered = trace::thread_covered_ns();
      const std::int64_t t0 = trace::now_ns();
      results.push_back(w.trial(seeds[i]));
      const std::int64_t t1 = trace::now_ns();
      pass_ns += t1 - t0;
      unattributed_ns += (t1 - t0) - (trace::thread_covered_ns() - covered);

      TrialOutcome o = w.outcome(results.back());
      const auto arrival = probe::first_arrival_ns();
      if (!arrival) o.failed_gates.emplace_back("no_traffic");
      if (i < w.timed) {
        if (arrival) {
          best_setup[i] = std::min(best_setup[i],
                                   1e-9 * static_cast<double>(*arrival - t0));
        }
        if (!keep_fastest(best_pieces[i], pieces(t0, probe::marks_ns(), t1))) {
          o.failed_gates.emplace_back("call_sequence_changed_between_repeats");
        }
      }
      rep.events += o.events;
      rep.pairs += o.ok() ? o.pairs : 0.0;
      rep.retransmits += o.retransmits;
      outcomes.push_back(std::move(o));
    }
    rep.pass_walls.push_back(1e-9 * static_cast<double>(pass_ns));

    // A pass whose digest is off fails every trial in it.
    std::string pass_error;
    if (rep.passes == 0) {
      rep.digest = digest_of(results);
      rep.service = summarize(outcomes);
      timed_digest = digest_of({results.begin(), results.begin() + w.timed});
      if (reference_digest && *reference_digest != rep.digest) {
        pass_error = "digest_differs_from_one_shard_reference";
      }
    } else if (digest_of(results) != *timed_digest) {
      pass_error = "digest_changed_between_repeats";
    }
    for (std::size_t i = 0; i < n; ++i) {
      TrialOutcome& o = outcomes[i];
      if (!pass_error.empty()) o.failed_gates.push_back(pass_error);
      ++rep.attempted;
      if (o.ok()) continue;
      ++rep.failed;
      std::string why = "trial seed " + std::to_string(seeds[i]) + " failed:";
      for (const auto& g : o.failed_gates) why += " " + g;
      rep.errors.push_back(why);
    }
    ++rep.passes;
    // Stop before a repeat would overrun the budget.
    elapsed_s = 1e-9 * static_cast<double>(trace::now_ns() - start_ns);
  } while (rep.passes < kMinPasses ||
           elapsed_s + rep.pass_walls.back() <= seconds);

  rep.cpu_per_wall = (process_cpu_s() - cpu_before) / elapsed_s;
  rep.spans = trace::collect() - spans_before;
  const auto trials = static_cast<double>(rep.attempted);
  rep.unattributed_s = 1e-9 * static_cast<double>(unattributed_ns) / trials;
  rep.events /= trials;
  rep.pairs /= trials;
  rep.retransmits /= trials;
  for (const auto& trial : best_pieces) {
    for (const double t : trial) rep.wall_s += t;
  }
  std::erase(best_setup, kUnset);  // trials that never saw traffic
  rep.setup_s = median(best_setup);
  rep.peak_rss_mb = peak_rss_mb();
  return rep;
}

}  // namespace perfbench
