// t5-trainer-q64: the single-process runtime::Trainer::RunEpoch.
//
// T5-5.5B on dp1/tp2/pp2, 131,072-token batches, micro-batch cap 16, plan
// cache at quantization 64, lookahead 2 on a three-thread pool, serialized
// in-process store. Set-up runs one warm epoch on shuffle 0; the measured
// epochs run on fresh shuffles, the regime the incremental-planning stack
// (prefix window cache, stage-cost memo, near-miss plan cache, warm start)
// exists for.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "bench_e2e/workloads.h"
#include "src/common/thread_pool.h"
#include "src/cost/cost_cache.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/mb/dp_partitioner.h"
#include "src/mb/ordering.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/runtime/ground_truth.h"
#include "src/runtime/planner.h"
#include "src/runtime/trainer.h"
#include "src/service/plan_cache.h"
#include "src/service/plan_serde.h"
#include "src/sim/cluster_sim.h"

namespace bench_e2e {
namespace {

using namespace dynapipe;

constexpr int64_t kBatchTokens = 131'072;
constexpr int32_t kMaxInputLen = 2048;
// The trainer's T5 default, max_input_len / 4; the replay truncates alike.
constexpr int32_t kMaxTargetLen = kMaxInputLen / 4;
constexpr int32_t kMicrobatchCap = 16;
constexpr int32_t kQuantization = 64;
constexpr int32_t kPoolThreads = 3;
constexpr int32_t kLookahead = 2;
constexpr int64_t kDatasetSamples = 64'000;
// Iterations of the first measured epoch re-planned by the cold serial path.
constexpr int64_t kReferenceSamples = 2;

model::ParallelConfig Parallel() { return {1, 2, 2}; }

runtime::PlannerOptions Planner() {
  runtime::PlannerOptions opts;
  opts.max_tmax_candidates = 96;
  opts.tmax_interval_ms = 0.2;
  opts.max_microbatch_size = kMicrobatchCap;
  opts.dynamic_recompute = true;
  return opts;
}

data::MiniBatchSamplerOptions SamplerOptions(uint64_t shuffle_seed) {
  data::MiniBatchSamplerOptions opts;
  opts.global_batch_tokens = kBatchTokens;
  opts.max_input_len = kMaxInputLen;
  opts.max_target_len = kMaxTargetLen;
  opts.seed = shuffle_seed;
  return opts;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

struct EpochRun {
  uint64_t shuffle_seed = 0;
  runtime::EpochResult result;
  double t0 = 0.0;
  double t1 = 0.0;
  bool traced = false;
  cost::StageCostCache::Stats stage0;
  cost::StageCostCache::Stats stage1;
};

}  // namespace

ReferenceCheck CheckAgainstReference(const cost::PipelineCostModel& cost_model,
                                     const runtime::PlannerOptions& warm,
                                     const std::vector<data::Sample>& batch,
                                     int32_t quantization,
                                     const runtime::IterationRecord& record) {
  runtime::PlannerOptions cold = warm;
  cold.cost_cache = false;
  cold.cost_oracle = nullptr;
  cold.incremental_planning = false;
  cold.prefix_cache = nullptr;
  cold.stage_cost_cache = nullptr;
  cold.warm_book = nullptr;
  cold.pool = nullptr;
  const runtime::IterationPlanner cold_planner(cost_model, cold);
  const runtime::IterationPlanner warm_planner(cost_model, warm);
  const std::vector<data::Sample> canonical =
      service::PlanCache::CanonicalizeForPlanning(batch, false, quantization);
  ReferenceCheck out;
  out.reference = service::PlanCache::Rebind(
      cold_planner.PlanIteration(canonical), batch, false, quantization);
  const runtime::IterationPlan got = service::PlanCache::Rebind(
      warm_planner.PlanIteration(canonical), batch, false, quantization);
  std::vector<std::string> ref_bytes;
  std::vector<std::string> got_bytes;
  for (const runtime::ReplicaPlan& replica : out.reference.replicas) {
    ref_bytes.push_back(service::EncodeExecutionPlan(replica.exec_plan));
  }
  for (const runtime::ReplicaPlan& replica : got.replicas) {
    got_bytes.push_back(service::EncodeExecutionPlan(replica.exec_plan));
  }
  out.ok = CheckSameEncoding(got_bytes, ref_bytes, &out.why);
  double ref_peak = 0.0;
  for (const double peak : out.reference.predicted_peak_mb) {
    ref_peak = std::max(ref_peak, peak);
  }
  if (out.ok &&
      (Bits(record.predicted_ms) != Bits(out.reference.predicted_iteration_ms) ||
       Bits(record.predicted_peak_mb) != Bits(ref_peak) ||
       record.num_microbatches != out.reference.total_microbatches() ||
       record.recompute != out.reference.recompute)) {
    out.ok = false;
    out.why = "the trainer's plan differs from the cold serial reference";
  }
  return out;
}

RunResult RunTrainer(const Args& args, double process_start_us) {
  RunResult result;
  const model::HardwareSpec hw;
  const model::ModelConfig config = model::ModelConfig::T5_5_5B();

  // --- Set-up ---
  data::FlanGeneratorOptions gen;
  gen.num_samples = kDatasetSamples;
  gen.seed = kDatasetSeed;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  cost::ProfileOptions profile;
  profile.max_microbatch_size = kMicrobatchCap;
  profile.max_seq_len = kMaxInputLen;
  runtime::Trainer trainer(config, hw, Parallel(), profile);
  ThreadPool pool(kPoolThreads);
  // The planner's epoch-spanning caches, passed in so the benchmark can read
  // their counters (the trainer would otherwise create the same ones).
  auto oracle = std::make_shared<cost::CachedCostOracle>(trainer.cost_model());
  auto prefix = std::make_shared<mb::PrefixWindowCache>();
  auto stage = std::make_shared<cost::StageCostCache>();
  runtime::PlannerOptions popts = Planner();
  popts.pool = &pool;
  popts.cost_oracle = oracle;
  popts.prefix_cache = prefix;
  popts.stage_cost_cache = stage;
  runtime::TrainerOptions topts;
  topts.global_batch_tokens = kBatchTokens;
  topts.max_input_len = kMaxInputLen;
  topts.max_target_len = kMaxTargetLen;
  topts.plan_lookahead = kLookahead;
  topts.plan_cache = true;
  topts.plan_cache_quantization = kQuantization;
  topts.serialize_plans = true;
  topts.sampler_seed = ShuffleSeed(args.seed, 0);
  const runtime::EpochResult warm = trainer.RunEpoch(dataset, popts, topts);
  if (!warm.feasible) {
    result.correct = false;
    result.failures.push_back("warm epoch failed: " + warm.failure);
  }

  // --- Measurement: whole epochs on fresh shuffles. ---
  const double t_start = NowUs();
  const double setup_s = (t_start - process_start_us) / 1e6;
  const double t_end = t_start + args.seconds * 1e6;
  const double t_mid = args.trace ? t_start + args.seconds * 0.5e6 : t_end;
  const double cpu_start = ProcessCpuMs();
  std::vector<EpochRun> epochs;
  for (int64_t k = 1; NowUs() < t_end; ++k) {
    EpochRun e;
    e.t0 = NowUs();
    if (args.trace && e.t0 >= t_mid) {
      SpanLog::Instance().set_enabled(true);
      e.traced = true;
    }
    e.shuffle_seed = ShuffleSeed(args.seed, k);
    topts.sampler_seed = e.shuffle_seed;
    e.stage0 = stage->stats();
    e.result = trainer.RunEpoch(dataset, popts, topts);
    e.stage1 = stage->stats();
    e.t1 = NowUs();
    SpanLog::Instance().Record(SpanName::kRuntimeEpoch, e.t0, e.t1);
    epochs.push_back(std::move(e));
  }
  const double cpu_end = ProcessCpuMs();
  const double peak_rss_mb = PeakRssMb();

  // --- Checks ---
  const double usable_mb = hw.usable_memory_mb();
  int64_t iterations = 0;
  std::vector<bool> epoch_ok(epochs.size(), true);
  // Per-layer timings the check phase takes of the traced epochs: the
  // sampler and the ordering step, timed around the same public functions
  // on the same inputs the trainer gave them.
  std::vector<double> sample_ms;
  std::vector<double> order_ms;
  std::vector<int64_t> reference_iterations;
  std::vector<int64_t> reported_tokens;  // per measured epoch
  std::vector<int64_t> replayed_tokens;
  for (size_t k = 0; k < epochs.size(); ++k) {
    const EpochRun& e = epochs[k];
    const runtime::EpochResult& r = e.result;
    iterations += r.iterations;
    if (!r.feasible || r.deadlocks != 0 || r.ooms != 0) {
      result.failures.push_back("epoch " + std::to_string(k + 1) +
                                " failed: " + r.failure);
      epoch_ok[k] = false;
    }
    for (size_t i = 0; i < r.records.size(); ++i) {
      const runtime::IterationRecord& rec = r.records[i];
      std::string why;
      SimBounds b;
      b.makespan_ms = rec.measured_ms;
      b.peak_memory_mb = rec.measured_peak_mb;
      if (!(rec.measured_ms > 0.0) || !CheckSimBounds(b, usable_mb, &why)) {
        result.failures.push_back("epoch " + std::to_string(k + 1) +
                                  " iteration " + std::to_string(i) + ": " +
                                  (why.empty() ? "no execution time" : why));
        epoch_ok[k] = false;
      }
    }
    SpanLog::Instance().set_enabled(e.traced);
    data::MiniBatchSampler replay(dataset, SamplerOptions(e.shuffle_seed));
    int64_t tokens = 0;
    for (int64_t i = 0; i < r.iterations && replay.HasNext(); ++i) {
      const double s0 = NowUs();
      std::vector<data::Sample> batch = replay.Next();
      const double s1 = NowUs();
      SpanLog::Instance().Record(SpanName::kDataSample, s0, s1, i);
      for (const data::Sample& s : batch) {
        tokens += s.total_tokens();
      }
      if (e.traced) {
        sample_ms.push_back((s1 - s0) / 1e3);
        std::vector<data::Sample> canonical =
            service::PlanCache::CanonicalizeForPlanning(batch, false,
                                                        kQuantization);
        const double o0 = NowUs();
        const std::vector<data::Sample> ordered = mb::OrderSamples(
            std::move(canonical), popts.ordering);
        const double o1 = NowUs();
        SpanLog::Instance().Record(SpanName::kMbOrder, o0, o1, i);
        order_ms.push_back((o1 - o0) / 1e3);
      }
      if (k == 0 && r.iterations > 0 &&
          static_cast<int64_t>(reference_iterations.size()) <
              kReferenceSamples &&
          (i + static_cast<int64_t>(args.seed)) %
                  std::max<int64_t>(1, r.iterations / kReferenceSamples) ==
              0) {
        reference_iterations.push_back(i);
      }
    }
    reported_tokens.push_back(r.real_tokens);
    replayed_tokens.push_back(tokens);
  }
  for (const int64_t k : CheckTokens(reported_tokens, replayed_tokens,
                                     &result.failures)) {
    epoch_ok[static_cast<size_t>(k)] = false;
  }

  // Reference re-plans of a sample of the first measured epoch: the cold
  // serial path (no cost cache, no pool, no incremental planning, same
  // quantization) against the trainer's record and against a re-plan by the
  // trainer's warm planner configuration, encoded byte for byte.
  std::vector<double> idle;
  std::vector<double> sim_ms;
  std::vector<double> encode_ms;
  std::vector<double> decode_ms;
  int64_t reference_failures = 0;
  if (!epochs.empty()) {
    SpanLog::Instance().set_enabled(args.trace);
    runtime::SimGroundTruth truth(config, hw, Parallel(), /*noise_stddev=*/0.05,
                                  args.seed);
    sim::ClusterSimOptions sim_opts;
    sim_opts.static_memory_mb = truth.StaticMemoryMb();
    sim_opts.memory_limit_mb = usable_mb;
    const runtime::EpochResult& first = epochs.front().result;
    data::MiniBatchSampler replay(dataset,
                                  SamplerOptions(epochs.front().shuffle_seed));
    for (int64_t i = 0; i < first.iterations && replay.HasNext(); ++i) {
      const std::vector<data::Sample> batch = replay.Next();
      if (std::find(reference_iterations.begin(), reference_iterations.end(),
                    i) == reference_iterations.end()) {
        continue;
      }
      const double p0 = NowUs();
      const ReferenceCheck check = CheckAgainstReference(
          trainer.cost_model(), popts, batch, kQuantization,
          first.records[static_cast<size_t>(i)]);
      SpanLog::Instance().Record(SpanName::kCheckReference, p0, NowUs(), i);
      if (!check.ok) {
        result.failures.push_back("iteration " + std::to_string(i) + ": " +
                                  check.why);
        ++reference_failures;
      }
      // The reference plan also runs through the codec and the simulator:
      // the per-layer timings of those layers, and the timeline bounds.
      for (const runtime::ReplicaPlan& replica : check.reference.replicas) {
        const double e0 = NowUs();
        const std::string bytes = service::EncodeExecutionPlan(replica.exec_plan);
        const double e1 = NowUs();
        const std::optional<sim::ExecutionPlan> decoded =
            service::TryDecodeExecutionPlan(bytes);
        const double e2 = NowUs();
        SpanLog::Instance().Record(SpanName::kServiceEncode, e0, e1, i);
        SpanLog::Instance().Record(SpanName::kServiceDecode, e1, e2, i);
        encode_ms.push_back((e1 - e0) / 1e3);
        decode_ms.push_back((e2 - e1) / 1e3);
        sim::ClusterSim cluster(Parallel().pp, &truth, sim_opts);
        const double r0 = NowUs();
        const sim::SimResult sim = cluster.Run(replica.exec_plan);
        const double r1 = NowUs();
        SpanLog::Instance().Record(SpanName::kSimRun, r0, r1, i);
        sim_ms.push_back((r1 - r0) / 1e3);
        idle.push_back(sim.MeanIdleFraction());
        std::string why;
        if (!decoded.has_value() || !(*decoded == replica.exec_plan)) {
          why = "plan does not round-trip through plan_serde";
        } else if (!CheckSimBounds(BoundsOf(sim), usable_mb, &why)) {
          why = "reference plan: " + why;
        }
        if (!why.empty()) {
          result.failures.push_back("iteration " + std::to_string(i) + ": " +
                                    why);
          ++reference_failures;
        }
      }
    }
    SpanLog::Instance().set_enabled(false);
    if (reference_failures != 0) {
      epoch_ok[0] = false;
    }
  }
  result.attempted = iterations;
  for (size_t k = 0; k < epochs.size(); ++k) {
    if (!epoch_ok[k]) {
      result.failed += epochs[k].result.iterations;
    }
  }
  result.correct = result.failures.empty();

  // --- Metrics ---
  const auto rate = [&](bool traced) {
    int64_t n = 0;
    double seconds = 0.0;
    for (const EpochRun& e : epochs) {
      if (e.traced == traced) {
        n += e.result.iterations;
        seconds += (e.t1 - e.t0) / 1e6;
      }
    }
    return Ratio(static_cast<double>(n), seconds);
  };
  if (!args.trace) {
    int64_t tokens = 0;
    double train_ms = 0.0;
    int64_t bytes = 0;
    std::vector<double> stalls;
    for (const EpochRun& e : epochs) {
      tokens += e.result.real_tokens;
      train_ms += e.result.train_time_ms;
      bytes += e.result.serialized_plan_bytes;
      for (const runtime::IterationRecord& rec : e.result.records) {
        stalls.push_back(rec.plan_stall_ms);
      }
    }
    const double elapsed_s =
        epochs.empty() ? 0.0 : (epochs.back().t1 - t_start) / 1e6;
    const double n = static_cast<double>(iterations);
    result.Add("setup_s", setup_s, "s");
    result.Add("iters_per_s", Ratio(n, elapsed_s), "iter/s");
    result.Add("sim_tokens_per_s",
               Ratio(static_cast<double>(tokens), train_ms / 1e3), "tok/s");
    result.Add("stall_ms_p50", PercentileOr0(stalls, 50.0), "ms");
    result.Add("stall_ms_tail", PercentileOr0(stalls, 99.0), "ms");
    result.Add("cpu_ms_per_iter", Ratio(cpu_end - cpu_start, n), "ms/iter");
    result.Add("plan_bytes_per_iter", Ratio(static_cast<double>(bytes), n),
               "B/iter");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    std::fprintf(stderr,
                 "[t5-trainer-q64] %lld iterations in %zu epochs, %.2f s; "
                 "warm epoch %lld iterations\n",
                 static_cast<long long>(iterations), epochs.size(), elapsed_s,
                 static_cast<long long>(warm.iterations));
    return result;
  }

  std::vector<double> plan_ms;
  std::vector<double> plan_cpu_ms;
  std::vector<double> partition_ms;
  std::vector<double> schedule_ms;
  std::vector<double> pruned;
  std::vector<double> time_err;
  std::vector<double> mem_err;
  int64_t prefix_hits = 0;
  int64_t prefix_lookups = 0;
  int64_t cost_hits = 0;
  int64_t cost_lookups = 0;
  int64_t stage_hits = 0;
  int64_t stage_lookups = 0;
  int64_t plan_hits = 0;
  int64_t plan_lookups = 0;
  mb::PaddingStats padding;
  const double order_mean = Mean(order_ms);
  for (const EpochRun& e : epochs) {
    if (!e.traced) {
      continue;
    }
    const runtime::EpochResult& r = e.result;
    for (const runtime::IterationRecord& rec : r.records) {
      plan_ms.push_back(rec.planning_ms);
      if (!rec.plan_cache_hit) {
        plan_cpu_ms.push_back(rec.partition_ms + rec.schedule_ms + order_mean);
        partition_ms.push_back(rec.partition_ms);
        schedule_ms.push_back(rec.schedule_ms);
        pruned.push_back(static_cast<double>(rec.warmstart_pruned));
      }
      prefix_hits += rec.prefix_cache_hits;
      prefix_lookups += rec.prefix_cache_hits + rec.prefix_cache_misses;
      cost_hits += rec.cost_cache_hits;
      cost_lookups += rec.cost_cache_hits + rec.cost_cache_misses;
      if (rec.measured_ms > 0.0) {
        time_err.push_back(std::abs(rec.predicted_ms - rec.measured_ms) /
                           rec.measured_ms);
      }
      if (rec.measured_peak_mb > 0.0) {
        mem_err.push_back(std::abs(rec.predicted_peak_mb - rec.measured_peak_mb) /
                          rec.measured_peak_mb);
      }
    }
    stage_hits += e.stage1.hits - e.stage0.hits;
    stage_lookups += (e.stage1.hits + e.stage1.misses) -
                     (e.stage0.hits + e.stage0.misses);
    plan_hits += r.plan_cache_hits;
    plan_lookups += r.plan_cache_hits + r.plan_cache_misses;
    padding.real_input_tokens += r.padding.real_input_tokens;
    padding.padded_input_tokens += r.padding.padded_input_tokens;
    padding.real_target_tokens += r.padding.real_target_tokens;
    padding.padded_target_tokens += r.padding.padded_target_tokens;
  }
  const double untraced_rate = rate(false);
  const double traced_rate = rate(true);
  result.Add("data.sample_ms", Mean(sample_ms), "ms");
  result.Add("runtime.plan_ms_p50", PercentileOr0(plan_ms, 50.0), "ms");
  result.Add("runtime.plan_ms_p90", PercentileOr0(plan_ms, 90.0), "ms");
  result.Add("runtime.plan_cpu_ms", Mean(plan_cpu_ms), "ms");
  result.Add("runtime.warmstart_pruned", Mean(pruned), "count");
  result.Add("mb.order_cpu_ms", order_mean, "ms");
  result.Add("mb.partition_cpu_ms", Mean(partition_ms), "ms");
  result.Add("mb.prefix_hit_ratio",
             Ratio(static_cast<double>(prefix_hits),
                   static_cast<double>(prefix_lookups)),
             "ratio");
  result.Add("mb.padding_efficiency", padding.overall_efficiency(), "ratio");
  result.Add("cost.cache_hit_ratio",
             Ratio(static_cast<double>(cost_hits),
                   static_cast<double>(cost_lookups)),
             "ratio");
  result.Add("cost.stage_cache_hit_ratio",
             Ratio(static_cast<double>(stage_hits),
                   static_cast<double>(stage_lookups)),
             "ratio");
  result.Add("cost.time_pred_error", Mean(time_err), "ratio");
  result.Add("cost.mem_pred_error", Mean(mem_err), "ratio");
  result.Add("schedule.cpu_ms", Mean(schedule_ms), "ms");
  result.Add("schedule.idle_fraction", Mean(idle), "ratio");
  result.Add("service.plan_cache_hit_ratio",
             Ratio(static_cast<double>(plan_hits),
                   static_cast<double>(plan_lookups)),
             "ratio");
  result.Add("service.encode_ms", Mean(encode_ms), "ms");
  result.Add("service.decode_ms", Mean(decode_ms), "ms");
  // The in-process trainer has no wire, no executor processes and no
  // acknowledgement hop: those layers read 0 here.
  result.Add("service.ack_lag_ms_p50", 0.0, "ms");
  result.Add("transport.push_ms_p50", 0.0, "ms");
  result.Add("transport.push_ms_p90", 0.0, "ms");
  result.Add("transport.fetch_ms_p50", 0.0, "ms");
  result.Add("transport.poll_useful_ratio", 0.0, "ratio");
  result.Add("executor.detect_ms_p50", 0.0, "ms");
  result.Add("executor.detect_ms_p90", 0.0, "ms");
  result.Add("executor.heartbeat_ms", 0.0, "ms");
  result.Add("sim.run_ms", Mean(sim_ms), "ms");
  result.Add("trace.overhead_pct",
             100.0 * (1.0 - Ratio(traced_rate, untraced_rate)), "%");
  std::fprintf(stderr,
               "[t5-trainer-q64] iters_per_s untraced %.2f, traced %.2f\n",
               untraced_rate, traced_rate);
  return result;
}

int RunPackingBaseline() {
  const model::HardwareSpec hw;
  data::FlanGeneratorOptions gen;
  gen.num_samples = kDatasetSamples;
  gen.seed = kDatasetSeed;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  cost::ProfileOptions profile;
  profile.max_microbatch_size = kMicrobatchCap;
  profile.max_seq_len = kMaxInputLen;
  runtime::Trainer trainer(model::ModelConfig::T5_5_5B(), hw, Parallel(),
                           profile);
  ThreadPool pool(kPoolThreads);
  runtime::TrainerOptions topts;
  topts.global_batch_tokens = kBatchTokens;
  topts.max_input_len = kMaxInputLen;
  topts.max_target_len = kMaxTargetLen;
  topts.planning_threads = kPoolThreads;
  topts.sampler_seed = ShuffleSeed(1, 1);
  double best = 0.0;
  std::string best_config;
  std::printf("%-28s %14s\n", "packing baseline", "sim tok/s");
  for (const int32_t sequences : {1, 2, 4, 8}) {
    for (const model::RecomputeMode mode :
         {model::RecomputeMode::kNone, model::RecomputeMode::kSelective,
          model::RecomputeMode::kFull}) {
      runtime::BaselineOptions b;
      b.batching = runtime::BaselineBatching::kPacking;
      b.microbatch_size = sequences;
      b.recompute = mode;
      const runtime::EpochResult r =
          trainer.RunEpochBaseline(dataset, b, topts);
      const std::string config = std::to_string(sequences) +
                                 " seq/mb, recompute " +
                                 model::RecomputeModeName(mode);
      if (!r.feasible) {
        std::printf("%-28s %14s\n", config.c_str(), "infeasible");
        continue;
      }
      std::printf("%-28s %14.1f\n", config.c_str(), r.tokens_per_second());
      if (r.tokens_per_second() > best) {
        best = r.tokens_per_second();
        best_config = config;
      }
    }
  }
  runtime::PlannerOptions popts = Planner();
  popts.pool = &pool;
  topts.plan_lookahead = kLookahead;
  topts.plan_cache = true;
  topts.plan_cache_quantization = kQuantization;
  topts.serialize_plans = true;
  const runtime::EpochResult planned = trainer.RunEpoch(dataset, popts, topts);
  std::printf("best packing (%s): %.1f sim tok/s\n", best_config.c_str(), best);
  std::printf("t5-trainer-q64 planning, same shuffle: %.1f sim tok/s (%.2fx)\n",
              planned.tokens_per_second(),
              Ratio(planned.tokens_per_second(), best));
  return planned.feasible && best > 0.0 ? 0 : 1;
}

}  // namespace bench_e2e
