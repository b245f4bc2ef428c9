// Link-time span wrappers (traced build only).
//
// Each PERFBENCH_SPAN / PERFBENCH_WRAP names one mangled public symbol of
// libqnetp. CMakeLists.txt scans this file for those names and links the
// traced binary with -Wl,--wrap=<symbol>, so every call to the symbol
// from another object file — the library's own cross-unit calls included
// — lands in __wrap_<symbol>, which opens a span and calls
// __real_<symbol>. Calls inside the defining unit are not redirected;
// their time stays with the enclosing span (ultimately des.run). A
// symbol that disappears from the library fails the link.
//
// Member functions are declared with their implicit object pointer as
// the first parameter, which is how the Itanium C++ ABI passes it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "ctrl/controller.hpp"
#include "ctrl/linkstate.hpp"
#include "des/simulator.hpp"
#include "linklayer/egp.hpp"
#include "netmsg/channel.hpp"
#include "netmsg/codec.hpp"
#include "netmsg/transport.hpp"
#include "netsim/network.hpp"
#include "netsim/topology_spec.hpp"
#include "qdevice/device.hpp"
#include "qdevice/entangled_pair.hpp"
#include "qhw/photonic_link.hpp"
#include "qnp/engine.hpp"
#include "qstate/swap.hpp"
#include "trace.hpp"

namespace q = qnetp;
namespace trace = perfbench::trace;

// Declares __real_SYM and the signature of __wrap_SYM; the body follows.
#define PERFBENCH_WRAP(SYM, RET, PARAMS) \
  extern "C" RET __real_##SYM PARAMS;    \
  extern "C" RET __wrap_##SYM PARAMS

// A wrapper that only times the call as span SPAN.
#define PERFBENCH_SPAN(SYM, SPAN, RET, PARAMS, ARGS) \
  PERFBENCH_WRAP(SYM, RET, PARAMS) {                 \
    const trace::Scope scope(trace::SPAN);           \
    return __real_##SYM ARGS;                        \
  }

// --- qhw --------------------------------------------------------------------
PERFBENCH_SPAN(_ZNK5qnetp3qhw17PhotonicLinkModel11solve_alphaEdPd,
               qhw_solve_alpha, bool,
               (const q::qhw::PhotonicLinkModel* self, double f_min,
                double* alpha),
               (self, f_min, alpha))
// Called once per herald, from EgpLink::on_herald (which is itself only
// reached from its own unit and so cannot be wrapped).
PERFBENCH_SPAN(_ZNK5qnetp3qhw17PhotonicLinkModel14produced_stateEd,
               qhw_produced_state, q::qstate::TwoQubitState,
               (const q::qhw::PhotonicLinkModel* self, double alpha),
               (self, alpha))

// --- linklayer --------------------------------------------------------------
PERFBENCH_SPAN(_ZN5qnetp9linklayer7EgpLink6submitERKNS0_11LinkRequestE,
               linklayer_submit, void,
               (q::linklayer::EgpLink* self,
                const q::linklayer::LinkRequest& request),
               (self, request))

// --- qstate -----------------------------------------------------------------
PERFBENCH_WRAP(
    _ZN5qnetp6qstate17entanglement_swapERKNS0_13TwoQubitStateES3_RKNS0_9SwapNoiseERNS_3RngE,
    q::qstate::SwapOutcome,
    (const q::qstate::TwoQubitState& left,
     const q::qstate::TwoQubitState& right,
     const q::qstate::SwapNoise& noise, q::Rng& rng)) {
  if (left.is_bell_diagonal() && right.is_bell_diagonal()) {
    trace::count(trace::swaps_fast);
  }
  const trace::Scope scope(trace::qstate_swap);
  return __real__ZN5qnetp6qstate17entanglement_swapERKNS0_13TwoQubitStateES3_RKNS0_9SwapNoiseERNS_3RngE(
      left, right, noise, rng);
}

// --- qdevice ----------------------------------------------------------------
PERFBENCH_SPAN(
    _ZN5qnetp7qdevice13QuantumDevice17entanglement_swapENS_8StrongIdINS_10QubitIdTagEEES4_St8functionIFvRKNS0_14SwapCompletionEEE,
    qdevice_swap, void,
    (q::qdevice::QuantumDevice* self, q::QubitId a, q::QubitId b,
     std::function<void(const q::qdevice::SwapCompletion&)> done),
    (self, a, b, std::move(done)))

// qdevice.advance: every public EntangledPair entry that first advances
// the pair's decoherence to `now` (advance_to itself is mostly called
// from inside entangled_pair.cpp).
PERFBENCH_SPAN(_ZN5qnetp7qdevice13EntangledPair10advance_toENS_9TimePointE,
               qdevice_advance, void,
               (q::qdevice::EntangledPair* self, q::TimePoint now),
               (self, now))
PERFBENCH_SPAN(_ZN5qnetp7qdevice13EntangledPair8state_atENS_9TimePointE,
               qdevice_advance, const q::qstate::TwoQubitState&,
               (q::qdevice::EntangledPair* self, q::TimePoint now),
               (self, now))
PERFBENCH_SPAN(
    _ZN5qnetp7qdevice13EntangledPair13apply_channelEiRKNS_6qstate7ChannelENS_9TimePointE,
    qdevice_advance, void,
    (q::qdevice::EntangledPair* self, int side,
     const q::qstate::Channel& ch, q::TimePoint now),
    (self, side, ch, now))
PERFBENCH_SPAN(
    _ZN5qnetp7qdevice13EntangledPair12measure_sideEiNS_6qstate5BasisENS_9TimePointERNS_3RngE,
    qdevice_advance, int,
    (q::qdevice::EntangledPair* self, int side, q::qstate::Basis basis,
     q::TimePoint now, q::Rng& rng),
    (self, side, basis, now, rng))
PERFBENCH_SPAN(
    _ZN5qnetp7qdevice13EntangledPair16pauli_correct_toEiNS_6qstate9BellIndexENS_9TimePointE,
    qdevice_advance, void,
    (q::qdevice::EntangledPair* self, int side, q::qstate::BellIndex target,
     q::TimePoint now),
    (self, side, target, now))
PERFBENCH_SPAN(_ZN5qnetp7qdevice13EntangledPair10break_sideEiNS_9TimePointE,
               qdevice_advance, void,
               (q::qdevice::EntangledPair* self, int side, q::TimePoint now),
               (self, side, now))
PERFBENCH_SPAN(_ZN5qnetp7qdevice13EntangledPair11freeze_sideEiNS_9TimePointE,
               qdevice_advance, void,
               (q::qdevice::EntangledPair* self, int side, q::TimePoint now),
               (self, side, now))
PERFBENCH_SPAN(
    _ZN5qnetp7qdevice13EntangledPair11rehome_sideEiNS_8StrongIdINS_10QubitIdTagEEENS_6qstate11MemoryDecayENS_9TimePointE,
    qdevice_advance, void,
    (q::qdevice::EntangledPair* self, int side, q::QubitId qubit,
     q::qstate::MemoryDecay decay, q::TimePoint now),
    (self, side, qubit, decay, now))
PERFBENCH_SPAN(
    _ZN5qnetp7qdevice13EntangledPair15oracle_fidelityENS_6qstate9BellIndexENS_9TimePointE,
    qdevice_advance, double,
    (q::qdevice::EntangledPair* self, q::qstate::BellIndex idx,
     q::TimePoint now),
    (self, idx, now))
PERFBENCH_SPAN(_ZN5qnetp7qdevice13EntangledPair15oracle_fidelityENS_9TimePointE,
               qdevice_advance, double,
               (q::qdevice::EntangledPair* self, q::TimePoint now),
               (self, now))

// --- qnp (qnp.submit lives in probe_wrap.cpp) --------------------------------
PERFBENCH_SPAN(
    _ZN5qnetp3qnp9QnpEngine10on_messageENS_8StrongIdINS_9NodeIdTagEEERKSt7variantIJNS_6netmsg10ForwardMsgENS6_11CompleteMsgENS6_8TrackMsgENS6_9ExpireMsgENS6_10InstallMsgENS6_13InstallAckMsgENS6_11TeardownMsgENS6_12KeepaliveMsgENS6_13TestResultMsgENS6_6LsaMsgENS6_9UpdateMsgENS6_8FrameMsgEEE,
    qnp_on_message, void,
    (q::qnp::QnpEngine* self, q::NodeId from, const q::netmsg::Message& msg),
    (self, from, msg))
PERFBENCH_SPAN(
    _ZN5qnetp3qnp9QnpEngine12on_link_pairERKNS_9linklayer16LinkPairDeliveryE,
    qnp_on_link_pair, void,
    (q::qnp::QnpEngine* self, const q::linklayer::LinkPairDelivery& d),
    (self, d))

// --- netmsg -----------------------------------------------------------------
PERFBENCH_SPAN(
    _ZN5qnetp6netmsg16ClassicalNetwork4sendENS_8StrongIdINS_9NodeIdTagEEES4_RKSt7variantIJNS0_10ForwardMsgENS0_11CompleteMsgENS0_8TrackMsgENS0_9ExpireMsgENS0_10InstallMsgENS0_13InstallAckMsgENS0_11TeardownMsgENS0_12KeepaliveMsgENS0_13TestResultMsgENS0_6LsaMsgENS0_9UpdateMsgENS0_8FrameMsgEEE,
    netmsg_send, void,
    (q::netmsg::ClassicalNetwork* self, q::NodeId from, q::NodeId to,
     const q::netmsg::Message& msg),
    (self, from, to, msg))
PERFBENCH_WRAP(
    _ZN5qnetp6netmsg6encodeERKSt7variantIJNS0_10ForwardMsgENS0_11CompleteMsgENS0_8TrackMsgENS0_9ExpireMsgENS0_10InstallMsgENS0_13InstallAckMsgENS0_11TeardownMsgENS0_12KeepaliveMsgENS0_13TestResultMsgENS0_6LsaMsgENS0_9UpdateMsgENS0_8FrameMsgEEE,
    q::Bytes, (const q::netmsg::Message& m)) {
  const trace::Scope scope(trace::netmsg_encode);
  q::Bytes bytes =
      __real__ZN5qnetp6netmsg6encodeERKSt7variantIJNS0_10ForwardMsgENS0_11CompleteMsgENS0_8TrackMsgENS0_9ExpireMsgENS0_10InstallMsgENS0_13InstallAckMsgENS0_11TeardownMsgENS0_12KeepaliveMsgENS0_13TestResultMsgENS0_6LsaMsgENS0_9UpdateMsgENS0_8FrameMsgEEE(
          m);
  trace::count(trace::encode_bytes, bytes.size());
  return bytes;
}
PERFBENCH_SPAN(_ZN5qnetp6netmsg6decodeERKSt6vectorIhSaIhEE, netmsg_decode,
               q::netmsg::Message, (const q::Bytes& bytes), (bytes))
PERFBENCH_SPAN(
    _ZN5qnetp6netmsg16ReliableEndpoint4sendENS_8StrongIdINS_9NodeIdTagEEERKSt7variantIJNS0_10ForwardMsgENS0_11CompleteMsgENS0_8TrackMsgENS0_9ExpireMsgENS0_10InstallMsgENS0_13InstallAckMsgENS0_11TeardownMsgENS0_12KeepaliveMsgENS0_13TestResultMsgENS0_6LsaMsgENS0_9UpdateMsgENS0_8FrameMsgEEE,
    netmsg_transport_send, void,
    (q::netmsg::ReliableEndpoint* self, q::NodeId to,
     const q::netmsg::Message& msg),
    (self, to, msg))
// The transport's receive entry: every frame (data or ack) a node takes
// off the channel.
PERFBENCH_SPAN(
    _ZN5qnetp6netmsg16ReliableEndpoint10on_messageENS_8StrongIdINS_9NodeIdTagEEERKSt7variantIJNS0_10ForwardMsgENS0_11CompleteMsgENS0_8TrackMsgENS0_9ExpireMsgENS0_10InstallMsgENS0_13InstallAckMsgENS0_11TeardownMsgENS0_12KeepaliveMsgENS0_13TestResultMsgENS0_6LsaMsgENS0_9UpdateMsgENS0_8FrameMsgEEE,
    netmsg_transport_frame, void,
    (q::netmsg::ReliableEndpoint* self, q::NodeId from,
     const q::netmsg::Message& msg),
    (self, from, msg))

// --- ctrl -------------------------------------------------------------------
PERFBENCH_SPAN(
    _ZN5qnetp4ctrl15LinkStateRouter10on_messageENS_8StrongIdINS_9NodeIdTagEEERKNS_6netmsg6LsaMsgE,
    ctrl_lsa, void,
    (q::ctrl::LinkStateRouter* self, q::NodeId from,
     const q::netmsg::LsaMsg& msg),
    (self, from, msg))
PERFBENCH_SPAN(
    _ZN5qnetp4ctrl10Controller12plan_circuitENS_8StrongIdINS_9NodeIdTagEEES4_NS2_INS_13EndpointIdTagEEES6_dRKNS0_18CircuitPlanOptionsEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    ctrl_plan, std::optional<q::ctrl::CircuitPlan>,
    (q::ctrl::Controller* self, q::NodeId head, q::NodeId tail,
     q::EndpointId head_ep, q::EndpointId tail_ep, double fidelity,
     const q::ctrl::CircuitPlanOptions& options, std::string* reason),
    (self, head, tail, head_ep, tail_ep, fidelity, options, reason))

// --- netsim -----------------------------------------------------------------
PERFBENCH_SPAN(_ZNK5qnetp6netsim12TopologySpec5buildERKNS0_13NetworkConfigE,
               netsim_build, std::unique_ptr<q::netsim::Network>,
               (const q::netsim::TopologySpec* self,
                const q::netsim::NetworkConfig& config),
               (self, config))
PERFBENCH_SPAN(
    _ZN5qnetp6netsim7Network17establish_circuitENS_8StrongIdINS_9NodeIdTagEEES4_NS2_INS_13EndpointIdTagEEES6_dRKNS_4ctrl18CircuitPlanOptionsEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_8DurationE,
    netsim_establish, std::optional<q::ctrl::CircuitPlan>,
    (q::netsim::Network* self, q::NodeId head, q::NodeId tail,
     q::EndpointId head_ep, q::EndpointId tail_ep, double fidelity,
     const q::ctrl::CircuitPlanOptions& options, std::string* reason,
     q::Duration timeout),
    (self, head, tail, head_ep, tail_ep, fidelity, options, reason, timeout))

// --- des (ShardedSimulator::run_until lives in probe_wrap.cpp) ------------
PERFBENCH_SPAN(_ZN5qnetp3des9Simulator9run_untilENS_9TimePointE, des_run,
               std::uint64_t, (q::des::Simulator* self, q::TimePoint horizon),
               (self, horizon))
