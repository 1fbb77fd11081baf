// Shows that every correctness check can fail: each is fed one perturbed
// input taken from a real run and must report the violation, while the
// unperturbed input passes.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_e2e/workloads.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/runtime/trainer.h"
#include "src/service/plan_serde.h"

namespace bench_e2e {
namespace {

using namespace dynapipe;

struct Case {
  std::string name;
  // True when the check reports a violation.
  std::function<bool()> trips;
  bool expect_trip = true;
};

}  // namespace

int RunSelfTest(double process_start_us) {
  std::vector<Case> cases;

  // --- Fleet checks, on a short gpt-fleet-shm run. ---
  Args args;
  args.workload = "gpt-fleet-shm";
  args.seed = 3;
  args.seconds = 2.0;
  const FleetRun fleet = RunFleet(args, process_start_us, /*replay_mux=*/false);
  for (const std::string& f : fleet.result.failures) {
    std::fprintf(stderr, "self-test fleet run: %s\n", f.c_str());
  }
  const bool fleet_ok = fleet.result.failures.empty() &&
                        !fleet.delivery.executions.empty() &&
                        fleet.reported_tokens.size() >= 2;
  const auto delivery_trips = [](const DeliveryInputs& in) {
    std::vector<std::string> failures;
    return !CheckDelivery(in, &failures).empty() || !failures.empty();
  };
  const auto tokens_trip = [](const std::vector<int64_t>& reported,
                              const std::vector<int64_t>& replayed) {
    std::vector<std::string> failures;
    return !CheckTokens(reported, replayed, &failures).empty();
  };
  const auto bounds_trip = [&](const SimBounds& b, double usable) {
    std::string why;
    return !CheckSimBounds(b, usable, &why);
  };
  cases.push_back({"delivery: unperturbed",
                   [&] { return delivery_trips(fleet.delivery); }, false});
  cases.push_back({"delivery: one hash byte flipped", [&] {
                     DeliveryInputs in = fleet.delivery;
                     in.executions.front().hash ^= 0xffull << 8;
                     return delivery_trips(in);
                   }});
  cases.push_back({"delivery: one acknowledgement dropped", [&] {
                     DeliveryInputs in = fleet.delivery;
                     in.acks.pop_back();
                     return delivery_trips(in);
                   }});
  cases.push_back({"delivery: one plan executed twice", [&] {
                     DeliveryInputs in = fleet.delivery;
                     in.executions.push_back(in.executions.front());
                     return delivery_trips(in);
                   }});
  cases.push_back({"tokens: unperturbed", [&] {
                     return tokens_trip(fleet.reported_tokens,
                                        fleet.replayed_tokens);
                   },
                   false});
  cases.push_back({"tokens: one token moved between iterations", [&] {
                     std::vector<int64_t> reported = fleet.reported_tokens;
                     --reported[0];
                     ++reported[1];
                     return tokens_trip(reported, fleet.replayed_tokens);
                   }});
  cases.push_back({"sim bounds: unperturbed", [&] {
                     return bounds_trip(fleet.delivery.executions.front().bounds,
                                        fleet.usable_memory_mb);
                   },
                   false});
  cases.push_back({"sim bounds: memory bound tightened below the plan", [&] {
                     const SimBounds& b = fleet.delivery.executions.front().bounds;
                     return bounds_trip(b, b.peak_memory_mb * 0.5);
                   }});
  cases.push_back({"sim bounds: busy time beyond the makespan", [&] {
                     SimBounds b = fleet.delivery.executions.front().bounds;
                     b.max_busy_ms = b.makespan_ms * 1.01;
                     return bounds_trip(b, fleet.usable_memory_mb);
                   }});
  cases.push_back({"sim bounds: deadlock", [&] {
                     SimBounds b = fleet.delivery.executions.front().bounds;
                     b.deadlocked = true;
                     return bounds_trip(b, fleet.usable_memory_mb);
                   }});

  // --- Reference re-plan, on a small T5 trainer epoch (same model,
  // parallelism, cap and quantization as t5-trainer-q64). ---
  const model::HardwareSpec hw;
  cost::ProfileOptions profile;
  profile.max_microbatch_size = 16;
  profile.max_seq_len = 2048;
  runtime::Trainer trainer(model::ModelConfig::T5_5_5B(), hw, {1, 2, 2},
                           profile);
  data::FlanGeneratorOptions gen;
  gen.num_samples = 600;
  gen.seed = 5;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  runtime::PlannerOptions popts;
  popts.max_tmax_candidates = 96;
  popts.tmax_interval_ms = 0.2;
  popts.max_microbatch_size = 16;
  runtime::TrainerOptions topts;
  topts.global_batch_tokens = 16'384;
  topts.max_input_len = 2048;
  topts.max_target_len = 512;
  topts.max_iterations = 2;
  topts.plan_cache = true;
  topts.plan_cache_quantization = 64;
  topts.serialize_plans = true;
  const runtime::EpochResult epoch = trainer.RunEpoch(dataset, popts, topts);
  data::MiniBatchSamplerOptions sopts;
  sopts.global_batch_tokens = topts.global_batch_tokens;
  sopts.max_input_len = topts.max_input_len;
  sopts.max_target_len = topts.max_target_len;
  sopts.seed = topts.sampler_seed;
  data::MiniBatchSampler sampler(dataset, sopts);
  const std::vector<data::Sample> batch = sampler.Next();
  const bool trainer_ok = epoch.feasible && !epoch.records.empty();
  const auto reference_trips = [&](const runtime::IterationRecord& record) {
    return !trainer_ok ||
           !CheckAgainstReference(trainer.cost_model(), popts, batch, 64, record)
                .ok;
  };
  cases.push_back({"reference re-plan: unperturbed", [&] {
                     return reference_trips(epoch.records.front());
                   },
                   false});
  cases.push_back({"reference re-plan: predicted time one ulp off", [&] {
                     runtime::IterationRecord record = epoch.records.front();
                     record.predicted_ms =
                         std::nextafter(record.predicted_ms, 0.0);
                     return reference_trips(record);
                   }});
  cases.push_back({"reference re-plan: one encoded byte flipped", [&] {
                     if (!trainer_ok) {
                       return true;
                     }
                     const ReferenceCheck check = CheckAgainstReference(
                         trainer.cost_model(), popts, batch, 64,
                         epoch.records.front());
                     std::vector<std::string> reference;
                     for (const auto& replica : check.reference.replicas) {
                       reference.push_back(
                           service::EncodeExecutionPlan(replica.exec_plan));
                     }
                     std::vector<std::string> got = reference;
                     got.front()[got.front().size() / 2] ^= 0x01;
                     std::string why;
                     return !CheckSameEncoding(got, reference, &why);
                   }});

  bool all_ok = fleet_ok && trainer_ok;
  if (!fleet_ok) {
    std::printf("self-test: the fleet run did not pass its own checks\n");
  }
  if (!trainer_ok) {
    std::printf("self-test: the trainer epoch failed: %s\n",
                epoch.failure.c_str());
  }
  for (const Case& c : cases) {
    const bool tripped = c.trips();
    const bool ok = tripped == c.expect_trip;
    all_ok = all_ok && ok;
    std::printf("%-4s %-52s %s\n", ok ? "ok" : "FAIL", c.name.c_str(),
                tripped ? "check reports failure" : "check passes");
  }
  std::printf("self-test %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace bench_e2e
