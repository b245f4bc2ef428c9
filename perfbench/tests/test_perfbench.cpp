// Unit tests of the benchmark's own arithmetic: span self time, metric
// extraction from TrialResults, and the tail-percentile support rule.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace {

namespace q = qnetp;
namespace trace = perfbench::trace;
using perfbench::TrialOutcome;

// --- spans -------------------------------------------------------------------

TEST(Trace, NestedSelfTimeExcludesDirectChildrenOnly) {
  const trace::Totals before = trace::collect();
  const std::int64_t covered = trace::thread_covered_ns();
  // des.run [0, 100) encloses qnp.on_message [10, 60), which encloses
  // qstate.swap [20, 50); a second child qhw.solve_alpha [70, 80).
  trace::enter(trace::des_run, 0);
  trace::enter(trace::qnp_on_message, 10);
  trace::enter(trace::qstate_swap, 20);
  trace::exit(50);
  trace::exit(60);
  trace::enter(trace::qhw_solve_alpha, 70);
  trace::exit(80);
  trace::exit(100);
  const trace::Totals d = trace::collect() - before;

  EXPECT_EQ(d.self_ns[trace::des_run], 100 - 50 - 10);
  EXPECT_EQ(d.self_ns[trace::qnp_on_message], 50 - 30);
  EXPECT_EQ(d.self_ns[trace::qstate_swap], 30);
  EXPECT_EQ(d.self_ns[trace::qhw_solve_alpha], 10);
  EXPECT_EQ(d.calls[trace::des_run], 1u);
  EXPECT_EQ(d.calls[trace::qstate_swap], 1u);
  // Only the outermost span counts toward the thread's covered time.
  EXPECT_EQ(trace::thread_covered_ns() - covered, 100);
}

TEST(Trace, RecursiveSpanOfOneNameSumsSelfTimes) {
  const trace::Totals before = trace::collect();
  // A sharded run_until [0, 40) around a shard's run_until [5, 35).
  trace::enter(trace::des_run, 0);
  trace::enter(trace::des_run, 5);
  trace::exit(35);
  trace::exit(40);
  const trace::Totals d = trace::collect() - before;
  EXPECT_EQ(d.calls[trace::des_run], 2u);
  EXPECT_EQ(d.self_ns[trace::des_run], 40);
}

TEST(Trace, ThreadsKeepSeparateStacksAndMergeOnExit) {
  const trace::Totals before = trace::collect();
  const std::int64_t covered = trace::thread_covered_ns();
  // This thread's open span must not become the workers' parent.
  trace::enter(trace::des_run, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      trace::enter(trace::des_run, 0);
      trace::enter(trace::qstate_swap, 10);
      trace::exit(10 + 5 * (t + 1));
      trace::exit(100);
      trace::count(trace::swaps_fast);
    });
  }
  for (auto& w : workers) w.join();
  trace::exit(1000);
  const trace::Totals d = trace::collect() - before;

  EXPECT_EQ(d.calls[trace::des_run], 5u);
  EXPECT_EQ(d.calls[trace::qstate_swap], 4u);
  EXPECT_EQ(d.self_ns[trace::qstate_swap], 5 + 10 + 15 + 20);
  // Workers: 4 * 100 minus their swaps; this thread: all 1000.
  EXPECT_EQ(d.self_ns[trace::des_run], 4 * 100 - 50 + 1000);
  EXPECT_EQ(d.counters[trace::swaps_fast], 4u);
  EXPECT_EQ(trace::thread_covered_ns() - covered, 1000);
}

// --- tail percentile ----------------------------------------------------------

TEST(TailRule, SamplesBeyondFollowsInterpolatedPosition) {
  EXPECT_EQ(perfbench::samples_beyond(0, 0.99), 0u);
  EXPECT_EQ(perfbench::samples_beyond(1, 0.5), 0u);
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(800, 0.99), 8u);
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.90), 100u);
  EXPECT_EQ(perfbench::samples_beyond(128, 0.90), 13u);
  EXPECT_EQ(perfbench::samples_beyond(101, 0.90), 10u);
  EXPECT_EQ(perfbench::samples_beyond(91, 0.90), 9u);
}

TEST(TailRule, PicksHighestSupportedPercentile) {
  EXPECT_EQ(perfbench::tail_quantile(1000), 0.99);
  EXPECT_EQ(perfbench::tail_quantile(800), 0.90);  // 8 beyond p99
  EXPECT_EQ(perfbench::tail_quantile(128), 0.90);
}

// --- extraction ----------------------------------------------------------------

q::exp::TrialResult healthy(std::initializer_list<std::pair<const char*, double>>
                                scalars) {
  q::exp::TrialResult r;
  r.set("ok", 1.0);
  r.set("consistency_ok", 1.0);
  for (const auto& [k, v] : scalars) r.set(k, v);
  return r;
}

TEST(Extract, FlagGatesRequireOkAndEveryPresentFlag) {
  auto r = healthy({{"leak_free", 1.0}});
  EXPECT_TRUE(perfbench::failed_flag_gates(r).empty());
  r.set("quiescent", 0.0);
  r.set("occ_flat", 0.0);
  EXPECT_EQ(perfbench::failed_flag_gates(r),
            (std::vector<std::string>{"quiescent", "occ_flat"}));
  q::exp::TrialResult empty;
  EXPECT_EQ(perfbench::failed_flag_gates(empty),
            std::vector<std::string>{"ok"});
}

TEST(Extract, FabricCountsSloFromLatenciesWithinBudget) {
  q::exp::ShardScalingConfig cfg;  // budget 2 s, 2 pairs, 5 s horizon
  auto r = healthy({{"offered", 10}, {"accepted", 3}, {"shaped", 1},
                    {"completed", 3}, {"events", 500}});
  for (const double l : {0.5, 1.5, 2.5}) r.add_sample("latency_s", l);
  const TrialOutcome o = perfbench::fabric_outcome(r, cfg);
  EXPECT_TRUE(o.ok());
  EXPECT_EQ(o.offered, 10.0);
  EXPECT_EQ(o.slo_eligible, 4.0);
  EXPECT_EQ(o.slo_met, 2.0);
  EXPECT_EQ(o.pairs, 6.0);
  EXPECT_EQ(o.window_s, 5.0);
  EXPECT_EQ(o.latency_n, 3u);
  EXPECT_EQ(o.events, 500.0);
}

TEST(Extract, TrafficKeepsExactQuantilesAndTrueCount) {
  q::exp::TrafficConfig cfg;
  cfg.pairs_per_request = 4;
  auto r = healthy({{"offered", 100}, {"completed", 40}, {"slo_met", 20},
                    {"slo_eligible", 25}, {"latency_p50_s", 1.25},
                    {"latency_p99_s", 4.5}, {"occ_flat", 1.0}});
  r.add_sample("latency_res_s", 1.0);
  const TrialOutcome o = perfbench::traffic_outcome(r, cfg);
  EXPECT_EQ(o.pairs, 160.0);
  EXPECT_EQ(o.latency_n, 40u);
  EXPECT_EQ(o.latency_s.size(), 1u);
  EXPECT_EQ(o.exact_p50, 1.25);
  EXPECT_EQ(o.exact_p99, 4.5);
  EXPECT_EQ(o.slo_met / o.slo_eligible, 0.8);
}

TEST(Extract, ChaosLatencyIsMeasuredFromTrafficStart) {
  q::exp::ChaosConfig cfg;  // warmup 3 s, 100 ms slots
  cfg.regions = 4;
  cfg.n_circuits = 2;  // 8 candidate flows: traffic starts at 3.8 s
  const auto r = healthy({{"admitted", 7}, {"rejected", 1}, {"completed", 2},
                          {"retransmits", 9}, {"conservation_ok", 1.0},
                          {"leak_free", 1.0}, {"quiescent", 1.0}});
  TrialOutcome o = perfbench::chaos_outcome(r, cfg, {3.9, 4.3});
  EXPECT_TRUE(o.ok());
  EXPECT_EQ(o.offered, 8.0);
  EXPECT_EQ(o.slo_eligible, 7.0);
  ASSERT_EQ(o.latency_s.size(), 2u);
  EXPECT_NEAR(o.latency_s[0], 0.1, 1e-12);
  EXPECT_NEAR(o.latency_s[1], 0.5, 1e-12);
  EXPECT_EQ(o.retransmits, 9.0);

  // A completion before the traffic start, or a count mismatch, fails.
  o = perfbench::chaos_outcome(r, cfg, {3.7, 4.3});
  EXPECT_FALSE(o.ok());
  o = perfbench::chaos_outcome(r, cfg, {4.3});
  EXPECT_FALSE(o.ok());
}

// --- summary -------------------------------------------------------------------

TrialOutcome outcome(double offered, double completed,
                     std::vector<double> latencies) {
  TrialOutcome o;
  o.offered = offered;
  o.completed = completed;
  o.slo_eligible = completed;
  o.slo_met = completed;
  o.pairs = completed;
  o.window_s = 10.0;
  o.latency_n = latencies.size();
  o.latency_s = std::move(latencies);
  return o;
}

TEST(Summary, PoolsTrialsAndCountsGatedTrialsAsFailed) {
  std::vector<TrialOutcome> batch;
  batch.push_back(outcome(4, 3, {1.0, 2.0, 3.0}));
  batch.push_back(outcome(4, 4, {4.0, 5.0, 6.0, 7.0}));
  auto m = perfbench::summarize(batch);
  EXPECT_EQ(m.pairs_per_s, 7.0 / 20.0);
  EXPECT_EQ(m.request_completed_frac, 7.0 / 8.0);
  EXPECT_EQ(m.latency_p50_s, 4.0);
  EXPECT_EQ(m.latency_n, 7u);
  EXPECT_EQ(m.tail_q, 0.90);

  batch[1].failed_gates.push_back("consistency_ok");
  m = perfbench::summarize(batch);
  EXPECT_EQ(m.request_completed_frac, 3.0 / 8.0);
  EXPECT_EQ(m.slo_attainment, 3.0 / 7.0);
  EXPECT_EQ(m.latency_p50_s, 2.0);
}

TEST(Summary, SingleTrialUsesExactQuantilesWhenSupported) {
  std::vector<double> reservoir(512, 1.0);
  TrialOutcome o = outcome(3000, 2000, reservoir);
  o.latency_n = 2000;  // reservoir of 512 out of 2000 completions
  o.exact_p50 = 0.75;
  o.exact_p99 = 9.0;
  auto m = perfbench::summarize({o});
  EXPECT_EQ(m.tail_q, 0.99);
  EXPECT_EQ(m.latency_p50_s, 0.75);
  EXPECT_EQ(m.latency_tail_s, 9.0);

  o.latency_n = 500;  // p99 unsupported: p90 from the samples
  m = perfbench::summarize({o});
  EXPECT_EQ(m.tail_q, 0.90);
  EXPECT_EQ(m.latency_tail_s, 1.0);
}

TEST(Summary, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
}

}  // namespace
