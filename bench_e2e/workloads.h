// The benchmark's workloads. Each runs set-up, measures for Args::seconds,
// checks every operation, and returns the metrics of BENCHMARK.json:
// end-to-end metrics for untraced runs, per-layer metrics for traced runs.
#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_e2e/checks.h"
#include "bench_e2e/harness.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/dataset.h"
#include "src/runtime/planner.h"
#include "src/runtime/trainer.h"

namespace bench_e2e {

// Fleets: three executor processes, and a planner pool of one thread, so
// the fleet plus the publisher fit the four cores the figures come from.
inline constexpr int32_t kExecutors = 3;

// Every workload draws from one FLAN-like dataset generated with this seed;
// the benchmark's --seed picks the shuffles (the batches the program sees).
inline constexpr uint64_t kDatasetSeed = 42;

// Shuffle seed of epoch `epoch` for benchmark seed `seed` (epoch 0 is the
// set-up epoch).
inline uint64_t ShuffleSeed(uint64_t seed, int64_t epoch) {
  return seed * 1'000'003ull + static_cast<uint64_t>(epoch) * 7919ull + 17ull;
}

// Everything a fleet run collected; the self-test perturbs copies of it.
struct FleetRun {
  RunResult result;
  DeliveryInputs delivery;
  std::vector<int64_t> reported_tokens;  // per iteration, from the plans
  std::vector<int64_t> replayed_tokens;  // per iteration, from the replay
  double usable_memory_mb = 0.0;
};

// `replay_mux`: false is gpt-fleet-shm, true is gpt-replay-mux.
FleetRun RunFleet(const Args& args, double process_start_us, bool replay_mux);

// t5-trainer-q64.
RunResult RunTrainer(const Args& args, double process_start_us);

// Reference figure for README.md: the best MLM+DS-style packing baseline's
// simulated tokens/s on the t5-trainer-q64 configuration (packed sequences
// per micro-batch x recompute mode), against DynaPipe planning on the same
// shuffle.
int RunPackingBaseline();

// Re-plans `batch` on the cold serial reference path (no cost cache, no
// pool, no incremental planning, same quantization) and checks it against
// the trainer's record of that iteration and, byte for byte, against a
// re-plan by `warm`, the trainer's own planner configuration.
struct ReferenceCheck {
  bool ok = false;
  std::string why;
  dynapipe::runtime::IterationPlan reference;
};
ReferenceCheck CheckAgainstReference(
    const dynapipe::cost::PipelineCostModel& cost_model,
    const dynapipe::runtime::PlannerOptions& warm,
    const std::vector<dynapipe::data::Sample>& batch, int32_t quantization,
    const dynapipe::runtime::IterationRecord& record);

// Perturbs one input per check and expects that check to fail. Returns the
// process exit code.
int RunSelfTest(double process_start_us);

}  // namespace bench_e2e

#endif  // BENCH_E2E_WORKLOADS_H_
