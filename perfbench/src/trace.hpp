// Per-layer spans for the traced benchmark build.
//
// A span is one call into a layer's public function, timed from outside
// the library by a link-time wrapper (trace_wrap.cpp). Each thread keeps
// its own nesting stack and totals, so a span's self time is its
// duration minus the durations of the spans it directly encloses on the
// same thread, and shard worker threads never contend. Totals of threads
// that exit (the sharded kernel's workers end with their trial) are
// folded into a process-wide sum; collect() adds the live threads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perfbench::trace {

/// Every span the traced build records, named <layer>.<entry>.
enum Span : std::size_t {
  qhw_solve_alpha,
  qhw_produced_state,
  linklayer_submit,
  qstate_swap,
  qdevice_swap,
  qdevice_advance,
  qnp_on_message,
  qnp_on_link_pair,
  qnp_submit,
  netmsg_send,
  netmsg_encode,
  netmsg_decode,
  netmsg_transport_send,
  netmsg_transport_frame,
  ctrl_lsa,
  ctrl_plan,
  netsim_build,
  netsim_establish,
  des_run,
  kSpanCount,
};

std::string_view span_name(Span span);

/// Plain counters recorded next to the spans (ratios' numerators).
enum Counter : std::size_t {
  swaps_fast,    ///< qstate swaps whose inputs are both Bell-diagonal
  encode_bytes,  ///< bytes produced by netmsg::encode
  submits_ok,    ///< QnpEngine::submit_request calls that returned true
  kCounterCount,
};

struct Totals {
  std::array<std::uint64_t, kSpanCount> calls{};
  std::array<std::int64_t, kSpanCount> self_ns{};
  std::array<std::uint64_t, kCounterCount> counters{};

  Totals& operator+=(const Totals& o);
  Totals operator-(const Totals& o) const;
};

/// Steady-clock nanoseconds.
std::int64_t now_ns();

/// Open / close a span on the calling thread at an explicit instant.
/// Spans close in LIFO order; exit() closes the innermost open one.
void enter(Span span, std::int64_t at_ns);
void exit(std::int64_t at_ns);
void count(Counter counter, std::uint64_t n = 1);

/// Sum of the durations of the outermost spans closed on this thread:
/// the part of the thread's time that some span accounts for.
std::int64_t thread_covered_ns();

/// Totals of every thread, live or exited. Call only while no other
/// thread is inside a span (between trials).
Totals collect();

class Scope {
 public:
  explicit Scope(Span span) { enter(span, now_ns()); }
  ~Scope() { exit(now_ns()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

}  // namespace perfbench::trace
