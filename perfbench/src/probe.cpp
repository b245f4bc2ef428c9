#include "probe.hpp"

#include <atomic>
#include <mutex>

#include "trace.hpp"

namespace perfbench::probe {

namespace {
constexpr std::int64_t kNone = 0;
std::atomic<std::int64_t> first_arrival{kNone};
std::mutex completions_mu;
std::vector<double> completions;  // guarded by completions_mu
thread_local bool trial_thread = false;
thread_local std::vector<std::int64_t> marks;
}  // namespace

void begin_trial() {
  first_arrival.store(kNone);
  trial_thread = true;
  marks.clear();
  const std::scoped_lock lock(completions_mu);
  completions.clear();
}

void note_arrival() {
  if (first_arrival.load(std::memory_order_relaxed) != kNone) return;
  std::int64_t expected = kNone;
  first_arrival.compare_exchange_strong(expected, trace::now_ns());
}

void note_mark() {
  if (trial_thread) marks.push_back(trace::now_ns());
}

std::vector<std::int64_t> marks_ns() { return marks; }

std::optional<std::int64_t> first_arrival_ns() {
  const std::int64_t v = first_arrival.load();
  if (v == kNone) return std::nullopt;
  return v;
}

void note_completion(std::optional<qnetp::TimePoint> at) {
  if (!at.has_value()) return;
  const std::scoped_lock lock(completions_mu);
  completions.push_back((*at - qnetp::TimePoint::origin()).as_seconds());
}

std::vector<double> completions_s() {
  const std::scoped_lock lock(completions_mu);
  return completions;
}

}  // namespace perfbench::probe
