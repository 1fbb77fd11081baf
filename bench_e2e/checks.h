// Correctness checks of the end-to-end benchmark. Each check is a pure
// function over records the benchmark collected, so the self-test can feed
// it one perturbed input and expect it to fail.
#ifndef BENCH_E2E_CHECKS_H_
#define BENCH_E2E_CHECKS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cluster_sim.h"

namespace bench_e2e {

using OpKey = std::pair<int64_t, int32_t>;  // (iteration, replica)

// One plan the publisher pushed: the hash of its encoding and when Push ran.
struct PushRecord {
  int64_t iteration = 0;
  int32_t replica = 0;
  uint64_t hash = 0;
  int64_t bytes = 0;
  double encode_ms = 0.0;
  double start_us = 0.0;  // Push called
  double end_us = 0.0;    // Push returned
};

// What a simulated replica run must satisfy.
struct SimBounds {
  bool deadlocked = false;
  bool oom = false;
  double makespan_ms = 0.0;
  double max_busy_ms = 0.0;
  double peak_memory_mb = 0.0;
};
SimBounds BoundsOf(const dynapipe::sim::SimResult& result);
// Per-device busy <= makespan, peak <= usable memory, no deadlock or OOM.
bool CheckSimBounds(const SimBounds& bounds, double usable_memory_mb,
                    std::string* why);

// One plan an executor process ran, handed to the publisher in a file.
// Trivially copyable: it is written as raw bytes. kind 1 is the
// executor's final report (iteration -1).
struct ExecRecord {
  int32_t kind = 0;
  int32_t replica = 0;
  int64_t iteration = 0;
  uint64_t hash = 0;  // FNV-1a of the fetched plan's encoding
  double obs_us = 0.0;       // observer entry (after the heartbeat)
  double obs_end_us = 0.0;   // observer exit
  double exec_wall_ms = 0.0; // fetch + simulate, as the executor measured it
  double fetch_ms = 0.0;
  double idle_fraction = 0.0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;    // traced runs only
  double cpu_ms = 0.0;       // process CPU at observer entry
  // This executor's frames written so far (wire endpoints only).
  int64_t contains_frames = 0;
  int64_t fetch_frames = 0;
  SimBounds bounds;
  // Final report (kind 1).
  int32_t report_ok = 0;
  int64_t iterations_run = 0;
  int64_t heartbeats_sent = 0;
  double heartbeat_ms_total = 0.0;
};

// One acknowledgement the publisher's monitor received.
struct AckRecord {
  int32_t replica = 0;
  int64_t iteration = 0;
  double at_us = 0.0;
};

// Byte-identical, exactly-once delivery: every pushed (iteration, replica)
// was executed once, by the executor of that replica, with the hash the
// publisher pushed, and acknowledged once; the executors' run counts, the
// push count, the acknowledgement count and the monitor's heartbeat total
// agree. Returns the operations that fail; fleet-wide disagreements go to
// `failures`.
struct DeliveryInputs {
  std::vector<PushRecord> pushes;
  std::vector<ExecRecord> executions;  // kind 0 records of every executor
  std::vector<AckRecord> acks;
  std::vector<int64_t> executor_iterations_run;  // from the final reports
  int64_t monitor_heartbeats = 0;
};
std::set<OpKey> CheckDelivery(const DeliveryInputs& in,
                              std::vector<std::string>* failures);

// Token conservation: iteration i's real tokens as the program reported
// them equal the benchmark's own replay of the sampler. Returns the failing
// iterations.
std::vector<int64_t> CheckTokens(const std::vector<int64_t>& reported,
                                 const std::vector<int64_t>& replayed,
                                 std::vector<std::string>* failures);

// Reference re-plan: the encodings (one per replica) must match byte for
// byte.
bool CheckSameEncoding(const std::vector<std::string>& got,
                       const std::vector<std::string>& reference,
                       std::string* why);

}  // namespace bench_e2e

#endif  // BENCH_E2E_CHECKS_H_
