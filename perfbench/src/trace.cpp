#include "trace.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>

namespace perfbench::trace {

namespace {

constexpr std::array<std::string_view, kSpanCount> kNames = {
    "qhw.solve_alpha",
    "qhw.produced_state",
    "linklayer.submit",
    "qstate.swap",
    "qdevice.swap",
    "qdevice.advance",
    "qnp.on_message",
    "qnp.on_link_pair",
    "qnp.submit",
    "netmsg.send",
    "netmsg.encode",
    "netmsg.decode",
    "netmsg.transport.send",
    "netmsg.transport.frame",
    "ctrl.lsa",
    "ctrl.plan",
    "netsim.build",
    "netsim.establish",
    "des.run",
};

struct Frame {
  Span span;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

class Recorder;

// Process-wide state: the live recorders and the folded totals of
// recorders whose threads have exited.
std::mutex registry_mu;
std::set<Recorder*> live;  // guarded by registry_mu
Totals retired;            // guarded by registry_mu

class Recorder {
 public:
  Recorder() {
    const std::scoped_lock lock(registry_mu);
    live.insert(this);
  }
  ~Recorder() {
    const std::scoped_lock lock(registry_mu);
    retired += totals;
    live.erase(this);
  }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void enter(Span span, std::int64_t at_ns) {
    // Wrapped calls nest only as deep as the library's own call chains.
    if (depth == stack.size()) std::abort();
    stack[depth++] = Frame{span, at_ns, 0};
  }

  void exit(std::int64_t at_ns) {
    if (depth == 0) std::abort();
    const Frame f = stack[--depth];
    const std::int64_t dur = at_ns - f.start_ns;
    totals.calls[f.span] += 1;
    totals.self_ns[f.span] += dur - f.child_ns;
    if (depth > 0) {
      stack[depth - 1].child_ns += dur;
    } else {
      covered_ns += dur;
    }
  }

  Totals totals;
  std::int64_t covered_ns = 0;

 private:
  std::array<Frame, 64> stack{};
  std::size_t depth = 0;
};

Recorder& recorder() {
  thread_local Recorder r;
  return r;
}

}  // namespace

std::string_view span_name(Span span) { return kNames.at(span); }

Totals& Totals::operator+=(const Totals& o) {
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    calls[i] += o.calls[i];
    self_ns[i] += o.self_ns[i];
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) counters[i] += o.counters[i];
  return *this;
}

Totals Totals::operator-(const Totals& o) const {
  Totals d = *this;
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    d.calls[i] -= o.calls[i];
    d.self_ns[i] -= o.self_ns[i];
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) d.counters[i] -= o.counters[i];
  return d;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void enter(Span span, std::int64_t at_ns) { recorder().enter(span, at_ns); }
void exit(std::int64_t at_ns) { recorder().exit(at_ns); }
void count(Counter counter, std::uint64_t n) {
  recorder().totals.counters[counter] += n;
}

std::int64_t thread_covered_ns() { return recorder().covered_ns; }

Totals collect() {
  const std::scoped_lock lock(registry_mu);
  Totals sum = retired;
  for (const Recorder* r : live) sum += r->totals;
  return sum;
}

}  // namespace perfbench::trace
