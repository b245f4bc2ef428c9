// perfbench / perfbench_traced: measure one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//
// Prints a `host` line (the fingerprint stored with every result), a
// `detail` line (digest, passes, which tail percentile was used and on
// how many samples, SLO attainment, each pass's host time), then one
// JSON result line: the end-to-end metrics
// from the timing build, or the per-layer metrics (plus the traced
// wall_s, from which run.py derives the tracing overhead) from the
// traced build. Exits 1 when any correctness gate fails, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunReport;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<Metric> end_to_end(const RunReport& r) {
  const auto& s = r.service;
  return {
      {"wall_s", r.wall_s, "s"},
      {"setup_s", r.setup_s, "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
      {"sim_pairs_per_s", s.pairs_per_s, "1/s"},
      {"sim_latency_p50_s", s.latency_p50_s, "s"},
      {"sim_latency_tail_s", s.latency_tail_s, "s"},
      {"request_completed_frac", s.request_completed_frac, "frac"},
  };
}

std::vector<Metric> per_layer(const RunReport& r) {
  namespace trace = perfbench::trace;
  const double n = static_cast<double>(r.attempted);
  const auto calls = [&](trace::Span s) {
    return static_cast<double>(r.spans.calls[s]);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<Metric> m;
  for (std::size_t i = 0; i < trace::kSpanCount; ++i) {
    const auto span = static_cast<trace::Span>(i);
    const std::string name(trace::span_name(span));
    m.push_back({name + ".calls", calls(span) / n, "count"});
    m.push_back({name + ".self_s",
                 1e-9 * static_cast<double>(r.spans.self_ns[span]) / n, "s"});
  }
  const auto counter = [&](trace::Counter c) {
    return static_cast<double>(r.spans.counters[c]);
  };
  m.push_back({"linklayer.on_herald.calls",
               calls(trace::qhw_produced_state) / n, "count"});
  m.push_back({"qstate.swap.fast_frac",
               ratio(counter(trace::swaps_fast), calls(trace::qstate_swap)),
               "frac"});
  m.push_back({"qstate.swaps_per_pair",
               ratio(calls(trace::qstate_swap) / n, r.pairs), "ratio"});
  m.push_back({"netmsg.encode.bytes_per_msg",
               ratio(counter(trace::encode_bytes), calls(trace::netmsg_encode)),
               "B"});
  m.push_back({"netmsg.transport.retx_frac",
               ratio(r.retransmits * n, calls(trace::netmsg_transport_send)),
               "frac"});
  m.push_back({"qnp.submit.accept_frac",
               ratio(counter(trace::submits_ok), calls(trace::qnp_submit)),
               "frac"});
  m.push_back({"des.events", r.events, "count"});
  m.push_back({"des.ns_per_event",
               ratio(static_cast<double>(r.spans.self_ns[trace::des_run]) / n,
                     r.events),
               "ns"});
  m.push_back({"des.sharded.cpu_per_wall", r.cpu_per_wall, "ratio"});
  m.push_back({"exp.unattributed_s", r.unattributed_s, "s"});
  m.push_back({"wall_s", r.wall_s, "s"});
  return m;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s>\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("malformed value for " + arg).c_str());
    }
  }
  const auto w = perfbench::find_workload(workload);
  if (!w) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed) return usage("--seed is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

#ifdef PERFBENCH_TRACED
  constexpr bool traced = true;
#else
  constexpr bool traced = false;
#endif
  std::cout << "host {\"cpu\": " << json_string(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"traced\": " << (traced ? "true" : "false") << "}\n";

  const RunReport r = perfbench::run_workload(*w, seed, seconds);
  for (const auto& e : r.errors) std::cerr << "perfbench: " << e << '\n';

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::cout << "detail {\"workload\": " << json_string(w->name)
            << ", \"seed\": " << seed << ", \"passes\": " << r.passes
            << ", \"trials_per_batch\": " << w->batch
            << ", \"timed_trials\": " << w->timed
            << ", \"digest\": \"" << digest << "\""
            << ", \"tail_percentile\": "
            << json_number(100.0 * r.service.tail_q)
            << ", \"latency_samples\": " << r.service.latency_n
            << ", \"slo_attainment\": " << json_number(r.service.slo_attainment)
            << ", \"pass_walls_s\": [";
  for (std::size_t i = 0; i < r.pass_walls.size(); ++i) {
    std::cout << (i ? ", " : "") << json_number(r.pass_walls[i]);
  }
  std::cout << "]}\n";

  const bool correct = r.failed == 0 && r.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  const auto metrics = traced ? per_layer(r) : end_to_end(r);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(metrics[i].name)
              << ": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
