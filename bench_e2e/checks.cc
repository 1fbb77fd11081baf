#include "bench_e2e/checks.h"

#include <algorithm>
#include <map>

namespace bench_e2e {

SimBounds BoundsOf(const dynapipe::sim::SimResult& result) {
  SimBounds b;
  b.deadlocked = result.deadlocked;
  b.oom = result.oom;
  b.makespan_ms = result.makespan_ms;
  for (const auto& device : result.devices) {
    b.max_busy_ms = std::max(b.max_busy_ms, device.busy_ms);
    b.peak_memory_mb = std::max(b.peak_memory_mb, device.peak_memory_mb);
  }
  return b;
}

bool CheckSimBounds(const SimBounds& bounds, double usable_memory_mb,
                    std::string* why) {
  if (bounds.deadlocked || bounds.oom) {
    *why = bounds.deadlocked ? "deadlocked" : "out of memory";
    return false;
  }
  // Busy time is a sum of compute spans that all end by the makespan; the
  // slack only absorbs floating-point summation order.
  if (bounds.max_busy_ms > bounds.makespan_ms * (1.0 + 1e-9) + 1e-9) {
    *why = "device busy " + std::to_string(bounds.max_busy_ms) +
           " ms exceeds makespan " + std::to_string(bounds.makespan_ms) + " ms";
    return false;
  }
  if (bounds.peak_memory_mb > usable_memory_mb) {
    *why = "peak memory " + std::to_string(bounds.peak_memory_mb) +
           " MB exceeds usable " + std::to_string(usable_memory_mb) + " MB";
    return false;
  }
  return true;
}

std::set<OpKey> CheckDelivery(const DeliveryInputs& in,
                              std::vector<std::string>* failures) {
  std::set<OpKey> bad;
  std::map<OpKey, uint64_t> pushed;
  for (const PushRecord& p : in.pushes) {
    const OpKey key{p.iteration, p.replica};
    if (!pushed.emplace(key, p.hash).second) {
      bad.insert(key);  // pushed twice
    }
  }
  std::map<OpKey, int> executed;
  for (const ExecRecord& e : in.executions) {
    const OpKey key{e.iteration, e.replica};
    const auto it = pushed.find(key);
    if (it == pushed.end() || it->second != e.hash) {
      bad.insert(key);  // never pushed, or bytes differ from what was pushed
    }
    ++executed[key];
  }
  std::map<OpKey, int> acked;
  for (const AckRecord& a : in.acks) {
    ++acked[{a.iteration, a.replica}];
  }
  for (const auto& [key, hash] : pushed) {
    const auto e = executed.find(key);
    const auto a = acked.find(key);
    if (e == executed.end() || e->second != 1 || a == acked.end() ||
        a->second != 1) {
      bad.insert(key);
    }
  }
  for (const auto& [key, n] : acked) {
    if (pushed.count(key) == 0) {
      bad.insert(key);
    }
  }
  int64_t runs = 0;
  for (const int64_t n : in.executor_iterations_run) {
    runs += n;
  }
  const auto pushes = static_cast<int64_t>(in.pushes.size());
  const auto acks = static_cast<int64_t>(in.acks.size());
  if (runs != pushes || acks != pushes || in.monitor_heartbeats != pushes) {
    failures->push_back(
        "delivery counts disagree: pushed " + std::to_string(pushes) +
        ", executed " + std::to_string(runs) + ", acknowledged " +
        std::to_string(acks) + ", monitor heartbeats " +
        std::to_string(in.monitor_heartbeats));
  }
  if (!bad.empty()) {
    const OpKey first = *bad.begin();
    const auto count = [](const std::map<OpKey, int>& m, const OpKey& k) {
      const auto it = m.find(k);
      return std::to_string(it == m.end() ? 0 : it->second);
    };
    failures->push_back(
        std::to_string(bad.size()) +
        " plan(s) not delivered byte-identically exactly once (first: "
        "iteration " +
        std::to_string(first.first) + " replica " +
        std::to_string(first.second) + ": pushed " +
        std::to_string(pushed.count(first)) + ", executed " +
        count(executed, first) + ", acknowledged " + count(acked, first) +
        ")");
  }
  return bad;
}

std::vector<int64_t> CheckTokens(const std::vector<int64_t>& reported,
                                 const std::vector<int64_t>& replayed,
                                 std::vector<std::string>* failures) {
  std::vector<int64_t> bad;
  const size_t n = std::max(reported.size(), replayed.size());
  for (size_t i = 0; i < n; ++i) {
    const int64_t got = i < reported.size() ? reported[i] : -1;
    const int64_t want = i < replayed.size() ? replayed[i] : -1;
    if (got != want) {
      bad.push_back(static_cast<int64_t>(i));
    }
  }
  if (!bad.empty()) {
    const size_t first = static_cast<size_t>(bad.front());
    failures->push_back(
        "token conservation: " + std::to_string(bad.size()) +
        " iteration(s) differ from the replayed sampler (first: iteration " +
        std::to_string(first) + ", program " +
        std::to_string(first < reported.size() ? reported[first] : -1) +
        ", replay " +
        std::to_string(first < replayed.size() ? replayed[first] : -1) + ")");
  }
  return bad;
}

bool CheckSameEncoding(const std::vector<std::string>& got,
                       const std::vector<std::string>& reference,
                       std::string* why) {
  if (got.size() != reference.size()) {
    *why = "replica count " + std::to_string(got.size()) + " vs reference " +
           std::to_string(reference.size());
    return false;
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r] != reference[r]) {
      *why = "replica " + std::to_string(r) +
             " encoding differs from the cold serial reference";
      return false;
    }
  }
  return true;
}

}  // namespace bench_e2e
