// Probe wrappers, linked into both benchmark binaries (see probe.hpp). In
// perfbench_traced they are also the qnp.submit and des.run spans.

#include <optional>
#include <string>

#include "des/sharded.hpp"
#include "netsim/probe.hpp"
#include "probe.hpp"
#include "qnp/engine.hpp"
#ifdef PERFBENCH_TRACED
#include "trace.hpp"
#endif

namespace q = qnetp;

extern "C" bool
__real__ZN5qnetp3qnp9QnpEngine14submit_requestENS_8StrongIdINS_12CircuitIdTagEEERKNS0_10AppRequestEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    q::qnp::QnpEngine* self, q::CircuitId circuit,
    const q::qnp::AppRequest& request, std::string* reason);
extern "C" bool
__wrap__ZN5qnetp3qnp9QnpEngine14submit_requestENS_8StrongIdINS_12CircuitIdTagEEERKNS0_10AppRequestEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    q::qnp::QnpEngine* self, q::CircuitId circuit,
    const q::qnp::AppRequest& request, std::string* reason) {
  perfbench::probe::note_arrival();
  perfbench::probe::note_mark();
#ifdef PERFBENCH_TRACED
  namespace trace = perfbench::trace;
  const trace::Scope scope(trace::qnp_submit);
#endif
  const bool ok =
      __real__ZN5qnetp3qnp9QnpEngine14submit_requestENS_8StrongIdINS_12CircuitIdTagEEERKNS0_10AppRequestEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
          self, circuit, request, reason);
#ifdef PERFBENCH_TRACED
  if (ok) trace::count(trace::submits_ok);
#endif
  return ok;
}

extern "C" std::optional<q::TimePoint>
__real__ZNK5qnetp6netsim9DualProbe15head_completionENS_8StrongIdINS_12RequestIdTagEEE(
    const q::netsim::DualProbe* self, q::RequestId id);
extern "C" std::optional<q::TimePoint>
__wrap__ZNK5qnetp6netsim9DualProbe15head_completionENS_8StrongIdINS_12RequestIdTagEEE(
    const q::netsim::DualProbe* self, q::RequestId id) {
  const auto at =
      __real__ZNK5qnetp6netsim9DualProbe15head_completionENS_8StrongIdINS_12RequestIdTagEEE(
          self, id);
  perfbench::probe::note_completion(at);
  return at;
}

extern "C" std::uint64_t
__real__ZN5qnetp3des16ShardedSimulator9run_untilENS_9TimePointE(
    q::des::ShardedSimulator* self, q::TimePoint horizon);
extern "C" std::uint64_t
__wrap__ZN5qnetp3des16ShardedSimulator9run_untilENS_9TimePointE(
    q::des::ShardedSimulator* self, q::TimePoint horizon) {
  perfbench::probe::note_mark();
#ifdef PERFBENCH_TRACED
  // On a sharded fabric this span is the calling thread's share of each
  // window plus the barrier; each worker's Simulator::run_until is its
  // own des.run span.
  const perfbench::trace::Scope scope(perfbench::trace::des_run);
#endif
  return __real__ZN5qnetp3des16ShardedSimulator9run_untilENS_9TimePointE(
      self, horizon);
}
