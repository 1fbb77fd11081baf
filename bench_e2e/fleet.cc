// The planner -> store -> executor fleets: gpt-fleet-shm and gpt-replay-mux.
//
// The publisher (this process) runs a service::PlanAheadService whose store
// override publishes into an external store: a ShmInstructionStore segment,
// or a MuxInstructionStore client of an InstructionStoreServer. Three forked
// children run executor::RunExecutor against it, and a
// service::HeartbeatMonitor acknowledges their completions. The benchmark
// wraps the store (push timing, plan hashes) and the monitor's sink
// (acknowledgement times); executors record each plan they ran in a file.
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "bench_e2e/workloads.h"
#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/executor/executor.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_ahead_service.h"
#include "src/service/plan_cache.h"
#include "src/service/plan_serde.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace bench_e2e {
namespace {

using namespace dynapipe;

// GPT-3.35B on dp3/tp1/pp4, exact lengths.
constexpr int64_t kBatchTokens = 65'536;
constexpr int32_t kMaxInputLen = 2048;
constexpr int32_t kMaxTargetLen = 512;
constexpr int32_t kMicrobatchCap = 128;
constexpr int64_t kDatasetSamples = 48'000;
constexpr int32_t kPoolThreads = 1;
constexpr int32_t kLookahead = 2;
constexpr size_t kPlanCacheCapacity = 512;
// Store capacity in plans per replica. On shm it stays under the segment's
// 8-entry heartbeat ring (kShmHeartbeatRing), so a backlog drained in one
// burst cannot lap the ring between two poller passes.
constexpr size_t kShmPlansPerReplica = 4;
constexpr size_t kMuxPlansPerReplica = 8;
// Executors run open-ended and leave once no plan appears for this long.
constexpr int kIdleTimeoutMs = 1500;
constexpr double kAckTimeoutUs = 30e6;
// Records the publisher keeps per plan and per iteration are reserved up
// front, so the benchmark's own bookkeeping grows the publisher's resident
// set linearly rather than in reallocation steps (peak_rss_mb is read while
// it is held).
constexpr size_t kRecordCapacity = size_t{1} << 20;
constexpr double kAttachTimeoutUs = 20e6;

model::ParallelConfig Parallel() { return {3, 1, 4}; }

runtime::PlannerOptions Planner(ThreadPool* pool) {
  runtime::PlannerOptions opts;
  opts.max_tmax_candidates = 96;
  opts.tmax_interval_ms = 0.2;
  opts.max_microbatch_size = kMicrobatchCap;
  opts.dynamic_recompute = true;
  opts.pool = pool;
  return opts;
}

// The source of mini-batches, and the benchmark's own replay of it: a
// sampler over successive shuffles (gpt-fleet-shm) or over one shuffle
// replayed (gpt-replay-mux).
class BatchStream {
 public:
  BatchStream(const data::Dataset& dataset, uint64_t seed, bool replay,
              int64_t first_epoch)
      : dataset_(dataset), seed_(seed), replay_(replay), epoch_(first_epoch) {
    Open();
  }
  std::vector<data::Sample> Next() {
    if (!sampler_->HasNext()) {
      if (!replay_) {
        ++epoch_;
      }
      Open();
    }
    return sampler_->Next();
  }

 private:
  void Open() {
    data::MiniBatchSamplerOptions opts;
    opts.global_batch_tokens = kBatchTokens;
    opts.max_input_len = kMaxInputLen;
    opts.max_target_len = kMaxTargetLen;
    opts.seed = ShuffleSeed(seed_, epoch_);
    sampler_.emplace(dataset_, opts);
  }
  const data::Dataset& dataset_;
  uint64_t seed_;
  bool replay_;
  int64_t epoch_;
  std::optional<data::MiniBatchSampler> sampler_;
};

int64_t TokensOf(const std::vector<data::Sample>& batch) {
  int64_t total = 0;
  for (const data::Sample& s : batch) {
    total += s.total_tokens();
  }
  return total;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// A page shared with the executors: the publisher raises `traced` when the
// traced half of a traced run begins.
struct SharedFlags {
  std::atomic<int> traced{0};
};

// The executor process: waits for the publisher's go byte, runs the real
// executor, and records every plan it ran (hash of its encoding, timings,
// simulation bounds) in `records_path`, which the publisher reads once the
// fleet has stopped; a file rather than a pipe keeps the records out of
// the publisher's memory while it is measured. Never returns.
[[noreturn]] void ExecutorChild(int32_t replica, const std::string& attach,
                                executor::AttachEndpoint endpoint, int go_fd,
                                const std::string& records_path,
                                const SharedFlags* flags) {
  char go = 0;
  if (!ReadAll(go_fd, &go, 1) || go != 'g') {
    ::_exit(0);  // the publisher failed before the fleet started
  }
  ::close(go_fd);
  std::FILE* records = std::fopen(records_path.c_str(), "wb");
  if (records == nullptr) {
    std::perror(records_path.c_str());
    ::_exit(2);
  }
  std::string scratch;
  common::MetricsRegistry& registry = common::MetricsRegistry::Instance();
  const common::Counter& contains_frames =
      registry.GetCounter("transport_frames_contains_total");
  const common::Counter& fetch_frames =
      registry.GetCounter("transport_frames_fetch_total");
  executor::ExecutorOptions opts;
  opts.attach = attach;
  opts.endpoint = endpoint;
  opts.replica = replica;
  opts.iterations = -1;
  opts.idle_timeout_ms = kIdleTimeoutMs;
  bool write_ok = true;
  opts.observer = [&](const executor::IterationOutcome& o) {
    ExecRecord rec;
    rec.obs_us = NowUs();
    rec.cpu_ms = ProcessCpuMs();
    rec.replica = replica;
    rec.iteration = o.iteration;
    rec.exec_wall_ms = o.exec_wall_ms;
    rec.fetch_ms = o.fetch_ms;
    const double e0 = NowUs();
    service::EncodeExecutionPlanInto(*o.plan, &scratch);
    rec.encode_ms = (NowUs() - e0) / 1e3;
    rec.hash = Fnv1a(scratch);
    if (flags->traced.load(std::memory_order_relaxed) != 0) {
      const double d0 = NowUs();
      const bool decoded =
          service::TryDecodeExecutionPlan(scratch).has_value();
      rec.decode_ms = (NowUs() - d0) / 1e3;
      if (!decoded) {
        rec.hash = ~rec.hash;  // surfaces as a delivery failure
      }
    }
    rec.bounds = BoundsOf(*o.sim);
    rec.idle_fraction = o.sim->MeanIdleFraction();
    rec.contains_frames = contains_frames.value();
    rec.fetch_frames = fetch_frames.value();
    rec.obs_end_us = NowUs();
    write_ok = write_ok && std::fwrite(&rec, sizeof(rec), 1, records) == 1;
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  ExecRecord final_rec;
  final_rec.kind = 1;
  final_rec.replica = replica;
  final_rec.iteration = -1;
  final_rec.report_ok = report.ok ? 1 : 0;
  final_rec.iterations_run = report.iterations_run;
  final_rec.heartbeats_sent = report.heartbeats_sent;
  final_rec.heartbeat_ms_total = report.heartbeat_ms_total;
  final_rec.cpu_ms = ProcessCpuMs();
  write_ok = write_ok &&
             std::fwrite(&final_rec, sizeof(final_rec), 1, records) == 1;
  write_ok = std::fclose(records) == 0 && write_ok;
  if (!report.ok) {
    std::fprintf(stderr, "[executor %d] %s\n", replica, report.error.c_str());
  }
  ::_exit(report.ok && write_ok ? 0 : 2);
}

// Forwards to the monitor, recording when each acknowledgement arrived.
class AckSink final : public runtime::HeartbeatSink {
 public:
  explicit AckSink(service::HeartbeatMonitor* monitor) : monitor_(monitor) {
    acks_.reserve(kRecordCapacity);
  }

  void OnHeartbeat(int32_t replica, int64_t iteration,
                   double wall_ms) override {
    const double now = NowUs();
    monitor_->OnHeartbeat(replica, iteration, wall_ms);
    std::lock_guard<std::mutex> lock(mu_);
    acks_.push_back({replica, iteration, now});
  }
  void OnReplicaAttached(int32_t replica) override {
    monitor_->OnReplicaAttached(replica);
  }
  void OnReplicaDisconnected(int32_t replica, bool clean) override {
    monitor_->OnReplicaDisconnected(replica, clean);
  }
  bool IsReplicaDead(int32_t replica) const override {
    return monitor_->IsReplicaDead(replica);
  }
  void OnReplicaDrainRequested(int32_t replica) override {
    monitor_->OnReplicaDrainRequested(replica);
  }

  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acks_.size();
  }
  std::vector<AckRecord> acks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acks_;
  }

 private:
  service::HeartbeatMonitor* monitor_;
  mutable std::mutex mu_;
  std::vector<AckRecord> acks_;  // guarded by mu_
};

// Forwards to the external store, timing each Push (capacity blocking
// included) and hashing the encoding of every plan pushed.
class TimedStore final : public runtime::InstructionStoreInterface {
 public:
  explicit TimedStore(std::shared_ptr<runtime::InstructionStoreInterface> inner)
      : inner_(std::move(inner)) {
    pushes_.reserve(kRecordCapacity);
  }

  void Push(int64_t iteration, int32_t replica,
            sim::ExecutionPlan plan) override {
    thread_local std::string scratch;
    PushRecord rec;
    rec.iteration = iteration;
    rec.replica = replica;
    const double e0 = NowUs();
    service::EncodeExecutionPlanInto(plan, &scratch);
    const double e1 = NowUs();
    rec.encode_ms = (e1 - e0) / 1e3;
    rec.hash = Fnv1a(scratch);
    rec.bytes = static_cast<int64_t>(scratch.size());
    rec.start_us = NowUs();
    inner_->Push(iteration, replica, std::move(plan));
    rec.end_us = NowUs();
    SpanLog& log = SpanLog::Instance();
    log.Record(SpanName::kServiceEncode, e0, e1, iteration, replica);
    log.Record(SpanName::kTransportPush, rec.start_us, rec.end_us, iteration,
               replica);
    std::lock_guard<std::mutex> lock(mu_);
    pushes_.push_back(rec);
  }
  sim::ExecutionPlan Fetch(int64_t iteration, int32_t replica) override {
    return inner_->Fetch(iteration, replica);
  }
  bool Contains(int64_t iteration, int32_t replica) const override {
    return inner_->Contains(iteration, replica);
  }
  size_t size() const override { return inner_->size(); }
  void Shutdown() override { inner_->Shutdown(); }
  int64_t serialized_bytes_total() const override {
    return inner_->serialized_bytes_total();
  }

  std::vector<PushRecord> pushes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushes_;
  }

 private:
  std::shared_ptr<runtime::InstructionStoreInterface> inner_;
  mutable std::mutex mu_;
  std::vector<PushRecord> pushes_;  // guarded by mu_
};

// What the publisher saw of one iteration.
struct IterInfo {
  double pulled_us = 0.0;
  double sample_ms = 0.0;
  bool delivered = false;
  bool feasible = false;
  bool cache_hit = false;
  double planning_ms = 0.0;
  runtime::PlanningStats stats;
  mb::PaddingStats padding;
  int64_t tokens = 0;
  std::vector<double> predicted_makespan_ms;  // per replica
  double predicted_act_peak_mb = 0.0;         // max over replicas and stages
};

struct Window {
  double begin = 0.0;
  double end = 0.0;
  bool Contains(double t) const { return t >= begin && t < end; }
  double seconds() const { return (end - begin) / 1e6; }
};

struct ChildProc {
  pid_t pid = -1;
  int go_fd = -1;
  std::string records_path;
  std::vector<ExecRecord> records;
  ExecRecord report;
  bool have_report = false;
};

}  // namespace

FleetRun RunFleet(const Args& args, double process_start_us, bool replay_mux) {
  FleetRun run;
  RunResult& result = run.result;
  const model::HardwareSpec hw;
  run.usable_memory_mb = hw.usable_memory_mb();
  const std::string tag = std::to_string(::getpid());
  const std::string attach = replay_mux
                                 ? args.out_dir + "/fleet-" + tag + ".sock"
                                 : "/dynapipe-bench-" + tag;
  const executor::AttachEndpoint endpoint =
      replay_mux ? executor::AttachEndpoint::kUnixSocketMux
                 : executor::AttachEndpoint::kSharedMemory;

  // Fork the executors first, while this process has no threads; they park
  // on their go pipe until the store exists.
  auto* flags = static_cast<SharedFlags*>(
      ::mmap(nullptr, sizeof(SharedFlags), PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  if (flags == MAP_FAILED) {
    result.correct = false;
    result.failures.push_back("mmap of the shared flag page failed");
    return run;
  }
  new (flags) SharedFlags();
  std::vector<ChildProc> children(kExecutors);
  for (int32_t r = 0; r < kExecutors; ++r) {
    int go[2];
    if (::pipe(go) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    const std::string records_path =
        args.out_dir + "/exec-" + tag + "-" + std::to_string(r) + ".bin";
    if (pid == 0) {
      ::close(go[1]);
      for (int32_t prev = 0; prev < r; ++prev) {
        ::close(children[static_cast<size_t>(prev)].go_fd);
      }
      ExecutorChild(r, attach, endpoint, go[0], records_path, flags);
    }
    ::close(go[0]);
    children[static_cast<size_t>(r)] = {pid, go[1], records_path, {}, {},
                                        false};
  }

  // --- Set-up: dataset, profiled cost model, planner, plan cache. ---
  data::FlanGeneratorOptions gen;
  gen.num_samples = kDatasetSamples;
  gen.seed = kDatasetSeed;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  cost::ProfileOptions profile;
  profile.max_microbatch_size = kMicrobatchCap;
  profile.max_seq_len = 4096;
  const cost::PipelineCostModel cost_model = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), hw, Parallel(), profile);
  ThreadPool pool(kPoolThreads);
  const runtime::IterationPlanner planner(cost_model, Planner(&pool));
  // Sized to hold the whole replayed epoch, which the default 256 entries
  // would not.
  auto plan_cache = std::make_shared<service::PlanCache>(
      service::PlanCacheOptions{kPlanCacheCapacity, /*max_bytes=*/0});

  std::vector<IterInfo> iters;
  iters.reserve(kRecordCapacity / kExecutors);
  const auto plan_fn = [&](const std::vector<data::Sample>& batch) {
    ScopedSpan span(SpanName::kRuntimePlan);
    return planner.PlanIteration(batch);
  };
  const auto seeded_plan_fn = [&](const std::vector<data::Sample>& batch,
                                  const runtime::PlanSeed* seed) {
    ScopedSpan span(SpanName::kRuntimePlan);
    return planner.PlanIteration(batch, seed);
  };
  const auto service_options = [&] {
    service::PlanAheadOptions sopts;
    sopts.lookahead = kLookahead;
    sopts.pool = &pool;
    sopts.plan_cache = plan_cache;
    sopts.config_hash = Fnv1a("gpt-3.35b dp3 tp1 pp4");
    sopts.fold_target_lengths = true;
    sopts.seeded_plan_fn = seeded_plan_fn;
    return sopts;
  };
  {
    // Set-up plans one epoch through the real service path on shuffle 0:
    // the plans gpt-replay-mux replays, and the cost oracle both use.
    BatchStream warm_stream(dataset, args.seed, /*replay=*/true, 0);
    data::MiniBatchSamplerOptions probe;
    probe.global_batch_tokens = kBatchTokens;
    probe.max_input_len = kMaxInputLen;
    probe.max_target_len = kMaxTargetLen;
    probe.seed = ShuffleSeed(args.seed, 0);
    const int64_t warm_iterations =
        data::MiniBatchSampler(dataset, probe).CountBatchesInEpoch();
    int64_t pulled = 0;
    service::PlanAheadService warm(
        plan_fn,
        [&]() -> std::vector<data::Sample> {
          return pulled++ < warm_iterations ? warm_stream.Next()
                                            : std::vector<data::Sample>{};
        },
        service_options());
    while (std::optional<service::ServicedPlan> sp = warm.NextPlan()) {
      for (size_t r = 0; r < sp->plan.replicas.size(); ++r) {
        warm.FetchExecPlan(sp->iteration, static_cast<int32_t>(r));
      }
    }
  }
  const service::PlanCacheStats warm_cache = plan_cache->stats();

  // --- The external store, the monitor, and the fleet. ---
  service::HeartbeatMonitorOptions mopts;
  mopts.expected_replicas = kExecutors;
  service::HeartbeatMonitor monitor(mopts);
  AckSink sink(&monitor);
  std::optional<runtime::InstructionStore> backing;
  std::optional<transport::UnixSocketTransport> socket;
  std::optional<transport::InstructionStoreServer> server;
  std::shared_ptr<transport::ShmInstructionStore> shm;
  std::optional<transport::ShmHeartbeatPoller> poller;
  std::shared_ptr<runtime::InstructionStoreInterface> external;
  if (replay_mux) {
    backing.emplace(runtime::InstructionStoreOptions{
        /*serialized=*/true, kMuxPlansPerReplica * kExecutors});
    backing->set_heartbeat_sink(&sink);
    socket.emplace(attach);
    server.emplace(&*socket, &*backing);
    external = transport::MuxInstructionStore::OverUnixSocket(attach);
  } else {
    transport::ShmStoreOptions sopts;
    sopts.capacity = kShmPlansPerReplica * kExecutors;
    shm = transport::ShmInstructionStore::Create(attach, sopts);
    poller.emplace(shm, &sink);
    external = shm;
  }
  auto timed = std::make_shared<TimedStore>(external);
  for (ChildProc& c : children) {
    if (::write(c.go_fd, "g", 1) != 1) {
      result.failures.push_back("cannot start executor pid " +
                                std::to_string(c.pid));
    }
    ::close(c.go_fd);
  }
  const double attach_deadline = NowUs() + kAttachTimeoutUs;
  while (static_cast<int32_t>(monitor.KnownReplicas().size()) < kExecutors &&
         NowUs() < attach_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool fleet_attached =
      static_cast<int32_t>(monitor.KnownReplicas().size()) == kExecutors;

  // --- Measurement. ---
  const double t_start = NowUs();
  const double setup_s = (t_start - process_start_us) / 1e6;
  const double t_end = t_start + args.seconds * 1e6;
  // A traced run measures untraced for the first half and traced for the
  // second: the per-layer metrics come from the second half, the tracing
  // overhead from comparing the two.
  const double t_mid = args.trace ? t_start + args.seconds * 0.5e6 : t_end;
  const Window whole{t_start, t_end};
  const Window untraced{t_start, t_mid};
  const Window traced{t_mid, t_end};
  const double cpu_start = ProcessCpuMs();
  double cpu_end = 0.0;
  bool tracing = false;
  BatchStream stream(dataset, args.seed, replay_mux, replay_mux ? 0 : 1);
  int64_t next_iteration = 0;
  std::optional<service::PlanAheadService> service;
  if (fleet_attached) {
    service.emplace(
        plan_fn,
        [&]() -> std::vector<data::Sample> {
          const double now = NowUs();
          if (now >= t_end) {
            if (cpu_end == 0.0) {
              cpu_end = ProcessCpuMs();
            }
            return {};
          }
          if (args.trace && !tracing && now >= t_mid) {
            tracing = true;
            SpanLog::Instance().set_enabled(true);
            flags->traced.store(1, std::memory_order_relaxed);
          }
          IterInfo info;
          info.pulled_us = NowUs();
          std::vector<data::Sample> batch = stream.Next();
          const double pulled_end = NowUs();
          info.sample_ms = (pulled_end - info.pulled_us) / 1e3;
          SpanLog::Instance().Record(SpanName::kDataSample, info.pulled_us,
                                     pulled_end, next_iteration);
          iters.push_back(info);
          ++next_iteration;
          return batch;
        },
        [&] {
          service::PlanAheadOptions sopts = service_options();
          // Pushes block on the external store's capacity (executors in
          // other processes free it), so the service never defers.
          sopts.store = timed;
          return sopts;
        }());
    for (;;) {
      const double n0 = NowUs();
      std::optional<service::ServicedPlan> sp = service->NextPlan();
      SpanLog::Instance().Record(SpanName::kServiceNextPlan, n0, NowUs(),
                                 sp.has_value() ? sp->iteration : -1);
      if (!sp.has_value()) {
        break;
      }
      IterInfo& info = iters[static_cast<size_t>(sp->iteration)];
      const runtime::IterationPlan& plan = sp->plan;
      info.delivered = true;
      info.feasible = plan.feasible;
      info.cache_hit = sp->plan_cache_hit;
      info.planning_ms = plan.planning_time_ms;
      info.stats = plan.stats;
      info.padding = plan.padding;
      for (const runtime::ReplicaPlan& replica : plan.replicas) {
        for (const mb::MicroBatch& m : replica.micro_batches) {
          info.tokens += m.real_tokens();
        }
        info.predicted_makespan_ms.push_back(replica.timeline.makespan_ms);
        for (const double peak : replica.timeline.device_peak_mb) {
          info.predicted_act_peak_mb = std::max(info.predicted_act_peak_mb, peak);
        }
      }
    }
  }
  std::vector<PushRecord> pushes = timed->pushes();
  // Every pushed plan runs to its acknowledgement before the fleet stops.
  const double ack_deadline = NowUs() + kAckTimeoutUs;
  while (sink.count() < pushes.size() && NowUs() < ack_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SpanLog::Instance().set_enabled(false);
  const double peak_rss_mb = PeakRssMb();
  service.reset();
  if (server.has_value()) {
    server->Stop();  // mux executors see the publisher leave and exit
  }
  for (ChildProc& c : children) {
    int status = 0;
    ::waitpid(c.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      result.failures.push_back("executor pid " + std::to_string(c.pid) +
                                " exited abnormally (status " +
                                std::to_string(status) + ")");
    }
  }
  for (ChildProc& c : children) {
    if (std::FILE* f = std::fopen(c.records_path.c_str(), "rb")) {
      ExecRecord rec;
      while (std::fread(&rec, sizeof(rec), 1, f) == 1) {
        if (rec.kind == 1) {
          c.report = rec;
          c.have_report = true;
        } else {
          c.records.push_back(rec);
        }
      }
      std::fclose(f);
    }
    std::remove(c.records_path.c_str());
  }
  poller.reset();
  ::munmap(flags, sizeof(SharedFlags));
  const std::vector<AckRecord> acks = sink.acks();

  // --- Checks. ---
  if (!fleet_attached) {
    result.failures.push_back("executors did not attach");
  }
  DeliveryInputs& delivery = run.delivery;
  delivery.pushes = pushes;
  delivery.acks = acks;
  delivery.monitor_heartbeats = monitor.total_heartbeats();
  std::vector<double> hb_mean_us(kExecutors, 0.0);
  for (size_t r = 0; r < children.size(); ++r) {
    const ChildProc& c = children[r];
    delivery.executions.insert(delivery.executions.end(), c.records.begin(),
                               c.records.end());
    delivery.executor_iterations_run.push_back(
        c.have_report ? c.report.iterations_run : -1);
    if (!c.have_report || c.report.report_ok == 0) {
      result.failures.push_back("executor " + std::to_string(r) +
                                " sent no clean report");
    } else if (c.report.heartbeats_sent != c.report.iterations_run) {
      result.failures.push_back(
          "executor " + std::to_string(r) + " sent " +
          std::to_string(c.report.heartbeats_sent) + " heartbeats for " +
          std::to_string(c.report.iterations_run) + " iterations");
    }
    if (c.have_report && c.report.heartbeats_sent > 0) {
      hb_mean_us[r] = c.report.heartbeat_ms_total * 1e3 /
                      static_cast<double>(c.report.heartbeats_sent);
    }
  }
  std::set<OpKey> bad = CheckDelivery(delivery, &result.failures);
  {
    // For a plan executed but never acknowledged: how many plans its
    // executor completed between the acknowledgement deliveries around it.
    // More than the shm segment's 8-entry ring (kShmHeartbeatRing) means the
    // poller was lapped and dropped the oldest beats.
    std::map<OpKey, double> acked_at;
    for (const AckRecord& a : acks) {
      acked_at[{a.iteration, a.replica}] = a.at_us;
    }
    for (const ExecRecord& e : delivery.executions) {
      if (acked_at.count({e.iteration, e.replica}) != 0) {
        continue;
      }
      double before = -1.0;
      double after = 1e300;
      for (const auto& [key, at] : acked_at) {
        if (key.second == e.replica && key.first < e.iteration) {
          before = std::max(before, at);
        } else if (key.second == e.replica && key.first > e.iteration) {
          after = std::min(after, at);
        }
      }
      int64_t completed = 0;
      for (const ExecRecord& o : delivery.executions) {
        completed += o.replica == e.replica && o.obs_us > before &&
                     o.obs_us <= after;
      }
      std::string where =
          before < 0.0 || after == 1e300
              ? "before or after every acknowledgement delivered to it"
              : "between the acknowledgement deliveries around it, " +
                    std::to_string((after - before) / 1e3) + " ms apart";
      result.failures.push_back(
          "iteration " + std::to_string(e.iteration) + " replica " +
          std::to_string(e.replica) + " never acknowledged: its executor "
          "completed " +
          std::to_string(completed) + " plan(s) " + where);
      break;
    }
  }
  {
    // Token conservation against the benchmark's own replay.
    BatchStream replay(dataset, args.seed, replay_mux, replay_mux ? 0 : 1);
    for (const IterInfo& info : iters) {
      run.reported_tokens.push_back(info.delivered ? info.tokens : -1);
      run.replayed_tokens.push_back(TokensOf(replay.Next()));
    }
    for (const int64_t i :
         CheckTokens(run.reported_tokens, run.replayed_tokens,
                     &result.failures)) {
      for (int32_t r = 0; r < kExecutors; ++r) {
        bad.insert({i, r});
      }
    }
  }
  for (size_t i = 0; i < iters.size(); ++i) {
    if (!iters[i].feasible) {
      result.failures.push_back("iteration " + std::to_string(i) +
                                " was not planned feasibly");
      for (int32_t r = 0; r < kExecutors; ++r) {
        bad.insert({static_cast<int64_t>(i), r});
      }
    }
  }
  for (const ExecRecord& e : delivery.executions) {
    std::string why;
    if (!CheckSimBounds(e.bounds, run.usable_memory_mb, &why)) {
      if (bad.insert({e.iteration, e.replica}).second) {
        result.failures.push_back("iteration " + std::to_string(e.iteration) +
                                  " replica " + std::to_string(e.replica) +
                                  ": " + why);
      }
    }
  }
  result.attempted = static_cast<int64_t>(iters.size()) * kExecutors;
  result.failed = static_cast<int64_t>(bad.size());
  result.correct = result.failures.empty();

  // --- Metrics. ---
  std::map<OpKey, const PushRecord*> push_of;
  for (const PushRecord& p : pushes) {
    push_of[{p.iteration, p.replica}] = &p;
  }
  std::map<OpKey, double> ack_of;
  std::map<int64_t, std::pair<int, double>> completion;  // iteration -> (acks, last)
  for (const AckRecord& a : acks) {
    ack_of[{a.iteration, a.replica}] = a.at_us;
    auto& c = completion[a.iteration];
    ++c.first;
    c.second = std::max(c.second, a.at_us);
  }
  const auto completed_in = [&](const Window& w) {
    std::vector<int64_t> out;
    for (const auto& [iteration, c] : completion) {
      if (c.first == kExecutors && w.Contains(c.second)) {
        out.push_back(iteration);
      }
    }
    return out;
  };
  // Executor-side timeline, reconstructed from each report: fetch start is
  // the observer entry minus the executed wall time minus the heartbeat.
  struct ExecTimes {
    const ExecRecord* rec;
    double fetch_start_us;
    double complete_us;
    double wait_ms;  // < 0 for an executor's first plan
  };
  std::vector<ExecTimes> exec_times;
  for (size_t r = 0; r < children.size(); ++r) {
    std::vector<const ExecRecord*> list;
    for (const ExecRecord& e : children[r].records) {
      list.push_back(&e);
    }
    std::sort(list.begin(), list.end(),
              [](const ExecRecord* a, const ExecRecord* b) {
                return a->obs_us < b->obs_us;
              });
    for (size_t k = 0; k < list.size(); ++k) {
      ExecTimes t;
      t.rec = list[k];
      t.complete_us = list[k]->obs_us - hb_mean_us[r];
      t.fetch_start_us = t.complete_us - list[k]->exec_wall_ms * 1e3;
      t.wait_ms =
          k == 0 ? -1.0 : (t.fetch_start_us - list[k - 1]->obs_end_us) / 1e3;
      exec_times.push_back(t);
    }
  }

  const auto iters_per_s = [&](const Window& w) {
    return static_cast<double>(completed_in(w).size()) / w.seconds();
  };

  if (!args.trace) {
    const std::vector<int64_t> done = completed_in(whole);
    double tokens = 0.0;
    double sim_ms = 0.0;
    std::map<int64_t, double> makespan;  // iteration -> max replica makespan
    for (const ExecRecord& e : delivery.executions) {
      double& m = makespan[e.iteration];
      m = std::max(m, e.bounds.makespan_ms);
    }
    for (const int64_t i : done) {
      tokens += static_cast<double>(iters[static_cast<size_t>(i)].tokens);
      sim_ms += makespan[i] + cost_model.DpGradSyncMs();
    }
    std::vector<double> stalls;
    for (const ExecTimes& t : exec_times) {
      if (t.wait_ms >= 0.0 && whole.Contains(t.fetch_start_us)) {
        stalls.push_back(t.wait_ms);
      }
    }
    // Executor CPU over the window: each executor's CPU at its last report
    // inside the window minus at its last report before it.
    double exec_cpu_ms = 0.0;
    for (const ChildProc& c : children) {
      double before = -1.0;
      double last = -1.0;
      for (const ExecRecord& e : c.records) {
        if (e.obs_us < whole.begin) {
          before = std::max(before, e.cpu_ms);
        } else if (whole.Contains(e.obs_us)) {
          last = std::max(last, e.cpu_ms);
        }
      }
      if (last >= 0.0) {
        exec_cpu_ms += last - std::max(0.0, before);
      }
    }
    int64_t plan_bytes = 0;
    for (const PushRecord& p : pushes) {
      plan_bytes += p.bytes;
    }
    const double n_done = static_cast<double>(done.size());
    result.Add("setup_s", setup_s, "s");
    result.Add("iters_per_s", n_done / whole.seconds(), "iter/s");
    result.Add("sim_tokens_per_s", Ratio(tokens, sim_ms / 1e3), "tok/s");
    result.Add("stall_ms_p50", PercentileOr0(stalls, 50.0), "ms");
    result.Add("stall_ms_tail", PercentileOr0(stalls, 99.0), "ms");
    result.Add("cpu_ms_per_iter",
               Ratio(cpu_end - cpu_start + exec_cpu_ms, n_done), "ms/iter");
    result.Add("plan_bytes_per_iter",
               Ratio(static_cast<double>(plan_bytes),
                     static_cast<double>(iters.size())),
               "B/iter");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    double max_ack_lag_ms = 0.0;
    for (const ExecTimes& t : exec_times) {
      const auto ack = ack_of.find({t.rec->iteration, t.rec->replica});
      if (ack != ack_of.end()) {
        max_ack_lag_ms =
            std::max(max_ack_lag_ms, (ack->second - t.complete_us) / 1e3);
      }
    }
    std::fprintf(stderr,
                 "[%s] %zu iterations in %.2f s window, %zu stall samples, "
                 "plan cache warmed with %lld plans, longest acknowledgement "
                 "lag %.1f ms\n",
                 replay_mux ? "gpt-replay-mux" : "gpt-fleet-shm", done.size(),
                 whole.seconds(), stalls.size(),
                 static_cast<long long>(warm_cache.insertions), max_ack_lag_ms);
    return run;
  }

  // --- Per-layer metrics, from the traced half. ---
  std::vector<double> sample_ms;
  std::vector<double> plan_ms;
  std::vector<double> plan_cpu_ms;
  std::vector<double> order_ms;
  std::vector<double> partition_ms;
  std::vector<double> schedule_ms;
  std::vector<double> pruned;
  int64_t prefix_hits = 0;
  int64_t prefix_lookups = 0;
  int64_t cost_hits = 0;
  int64_t cost_lookups = 0;
  int64_t stage_hits = 0;
  int64_t stage_lookups = 0;
  int64_t cache_hits = 0;
  int64_t traced_iters = 0;
  mb::PaddingStats padding;
  for (size_t i = 0; i < iters.size(); ++i) {
    const IterInfo& info = iters[i];
    if (!traced.Contains(info.pulled_us) || !info.delivered) {
      continue;
    }
    ++traced_iters;
    sample_ms.push_back(info.sample_ms);
    plan_ms.push_back(info.planning_ms);
    if (!info.cache_hit) {
      const runtime::PlanningStats& s = info.stats;
      plan_cpu_ms.push_back(s.order_ms + s.partition_ms + s.schedule_ms);
      order_ms.push_back(s.order_ms);
      partition_ms.push_back(s.partition_ms);
      schedule_ms.push_back(s.schedule_ms);
      pruned.push_back(static_cast<double>(s.warmstart_pruned));
    }
    prefix_hits += info.stats.prefix_cache_hits;
    prefix_lookups += info.stats.prefix_cache_hits + info.stats.prefix_cache_misses;
    cost_hits += info.stats.cost_cache_hits;
    cost_lookups += info.stats.cost_cache_hits + info.stats.cost_cache_misses;
    stage_hits += info.stats.stage_cache_hits;
    stage_lookups += info.stats.stage_cache_hits + info.stats.stage_cache_misses;
    cache_hits += info.cache_hit ? 1 : 0;
    padding.real_input_tokens += info.padding.real_input_tokens;
    padding.padded_input_tokens += info.padding.padded_input_tokens;
    padding.real_target_tokens += info.padding.real_target_tokens;
    padding.padded_target_tokens += info.padding.padded_target_tokens;
  }
  std::vector<double> time_err;
  std::vector<double> mem_err;
  std::vector<double> idle;
  std::vector<double> encode_ms;
  std::vector<double> decode_ms;
  std::vector<double> ack_lag_ms;
  std::vector<double> push_ms;
  std::vector<double> fetch_ms;
  std::vector<double> detect_ms;
  std::vector<double> sim_ms;
  for (const PushRecord& p : pushes) {
    if (traced.Contains(p.start_us)) {
      encode_ms.push_back(p.encode_ms);
      push_ms.push_back((p.end_us - p.start_us) / 1e3);
    }
  }
  SpanLog& log = SpanLog::Instance();
  log.set_enabled(true);  // ship the executors' spans of the traced half
  for (const ExecTimes& t : exec_times) {
    const ExecRecord& e = *t.rec;
    if (!traced.Contains(t.fetch_start_us)) {
      continue;
    }
    const IterInfo& info = iters[static_cast<size_t>(e.iteration)];
    if (static_cast<size_t>(e.replica) < info.predicted_makespan_ms.size() &&
        e.bounds.makespan_ms > 0.0) {
      time_err.push_back(
          std::abs(info.predicted_makespan_ms[static_cast<size_t>(e.replica)] -
                   e.bounds.makespan_ms) /
          e.bounds.makespan_ms);
    }
    if (e.bounds.peak_memory_mb > 0.0) {
      mem_err.push_back(
          std::abs(info.predicted_act_peak_mb - e.bounds.peak_memory_mb) /
          e.bounds.peak_memory_mb);
    }
    idle.push_back(e.idle_fraction);
    if (e.decode_ms > 0.0) {
      decode_ms.push_back(e.decode_ms);
    }
    fetch_ms.push_back(e.fetch_ms);
    sim_ms.push_back(e.exec_wall_ms - e.fetch_ms);
    const OpKey key{e.iteration, e.replica};
    const auto push = push_of.find(key);
    if (push != push_of.end()) {
      detect_ms.push_back((t.fetch_start_us - push->second->end_us) / 1e3);
    }
    const auto ack = ack_of.find(key);
    if (ack != ack_of.end()) {
      ack_lag_ms.push_back((ack->second - t.complete_us) / 1e3);
    }
    // The executor's spans, rebuilt from its report.
    Span s;
    s.pid = static_cast<int32_t>(children[static_cast<size_t>(e.replica)].pid);
    s.tid = s.pid;
    s.iteration = e.iteration;
    s.replica = e.replica;
    const auto add = [&](SpanName name, double begin, double end, bool wait) {
      s.name = name;
      s.start_us = begin;
      s.end_us = end;
      s.wait = wait;
      log.Add(s);
    };
    if (t.wait_ms >= 0.0) {
      add(SpanName::kExecutorWaitPlan, t.fetch_start_us - t.wait_ms * 1e3,
          t.fetch_start_us, true);
    }
    add(SpanName::kExecutorIteration, t.fetch_start_us, e.obs_end_us, false);
    add(SpanName::kTransportFetch, t.fetch_start_us,
        t.fetch_start_us + e.fetch_ms * 1e3, false);
    add(SpanName::kSimRun, t.fetch_start_us + e.fetch_ms * 1e3, t.complete_us,
        false);
    add(SpanName::kExecutorHeartbeat, t.complete_us, e.obs_us, false);
    add(SpanName::kServiceEncode, e.obs_us, e.obs_us + e.encode_ms * 1e3,
        false);
    if (e.decode_ms > 0.0) {
      const double d0 = e.obs_us + e.encode_ms * 1e3;
      add(SpanName::kServiceDecode, d0, d0 + e.decode_ms * 1e3, false);
    }
    if (ack != ack_of.end()) {
      s.pid = static_cast<int32_t>(::getpid());
      s.tid = 0;
      add(SpanName::kServiceAckLag, t.complete_us, ack->second, true);
    }
  }
  log.set_enabled(false);
  int64_t heartbeats = 0;
  double heartbeat_ms = 0.0;
  for (const ChildProc& c : children) {
    heartbeats += c.report.heartbeats_sent;
    heartbeat_ms += c.report.heartbeat_ms_total;
  }
  // Useful polls: fetch frames over publish-poll (kContains) frames the
  // executors wrote during the traced half, from their counters.
  double contains_frames = 0.0;
  double fetch_frames = 0.0;
  for (const ChildProc& c : children) {
    const ExecRecord* before = nullptr;
    const ExecRecord* last = nullptr;
    for (const ExecRecord& e : c.records) {
      if (e.obs_us < traced.begin) {
        before = before == nullptr || e.obs_us > before->obs_us ? &e : before;
      } else if (traced.Contains(e.obs_us)) {
        last = last == nullptr || e.obs_us > last->obs_us ? &e : last;
      }
    }
    if (before != nullptr && last != nullptr) {
      contains_frames +=
          static_cast<double>(last->contains_frames - before->contains_frames);
      fetch_frames +=
          static_cast<double>(last->fetch_frames - before->fetch_frames);
    }
  }
  const double untraced_rate = iters_per_s(untraced);
  const double traced_rate = iters_per_s(traced);

  result.Add("data.sample_ms", Mean(sample_ms), "ms");
  result.Add("runtime.plan_ms_p50", PercentileOr0(plan_ms, 50.0), "ms");
  result.Add("runtime.plan_ms_p90", PercentileOr0(plan_ms, 90.0), "ms");
  result.Add("runtime.plan_cpu_ms", Mean(plan_cpu_ms), "ms");
  result.Add("runtime.warmstart_pruned", Mean(pruned), "count");
  result.Add("mb.order_cpu_ms", Mean(order_ms), "ms");
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
             Ratio(static_cast<double>(cache_hits),
                   static_cast<double>(traced_iters)),
             "ratio");
  result.Add("service.encode_ms", Mean(encode_ms), "ms");
  result.Add("service.decode_ms", Mean(decode_ms), "ms");
  result.Add("service.ack_lag_ms_p50", PercentileOr0(ack_lag_ms, 50.0), "ms");
  result.Add("transport.push_ms_p50", PercentileOr0(push_ms, 50.0), "ms");
  result.Add("transport.push_ms_p90", PercentileOr0(push_ms, 90.0), "ms");
  result.Add("transport.fetch_ms_p50", PercentileOr0(fetch_ms, 50.0), "ms");
  result.Add("transport.poll_useful_ratio", Ratio(fetch_frames, contains_frames),
             "ratio");
  result.Add("executor.detect_ms_p50", PercentileOr0(detect_ms, 50.0), "ms");
  result.Add("executor.detect_ms_p90", PercentileOr0(detect_ms, 90.0), "ms");
  result.Add("executor.heartbeat_ms",
             Ratio(heartbeat_ms, static_cast<double>(heartbeats)), "ms");
  result.Add("sim.run_ms", Mean(sim_ms), "ms");
  result.Add("trace.overhead_pct",
             100.0 * (1.0 - Ratio(traced_rate, untraced_rate)), "%");
  std::fprintf(stderr,
               "[%s] traced half: %lld iterations; iters_per_s untraced %.2f, "
               "traced %.2f\n",
               replay_mux ? "gpt-replay-mux" : "gpt-fleet-shm",
               static_cast<long long>(traced_iters), untraced_rate,
               traced_rate);
  return run;
}

}  // namespace bench_e2e
