// Shared pieces of the end-to-end benchmark: clocks, resource usage, the
// result line, and the benchmark's own span log (spans are recorded around
// calls into the program's public functions, never inside the program).
#ifndef BENCH_E2E_HARNESS_H_
#define BENCH_E2E_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bench_e2e {

// CLOCK_MONOTONIC in microseconds. Forked executor processes read the same
// clock, so their timestamps compare directly with the publisher's.
double NowUs();
// User + system CPU of this process so far.
double ProcessCpuMs();
// Peak resident set of this process.
double PeakRssMb();
// FNV-1a over bytes (the plan-delivery hash).
uint64_t Fnv1a(std::string_view bytes);

// Percentile (p in [0, 100]) and the 0 convention for an empty sample.
double PercentileOr0(const std::vector<double>& values, double p);
double Mean(const std::vector<double>& values);
double Ratio(double num, double den);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for the trace, the mux socket and the executors'
  // records, relative to the working directory (the checkout root).
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // One line per violated check (printed to stderr).
  std::vector<std::string> failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// The last line of the benchmark's stdout.
std::string ResultJson(const RunResult& result);

// --- Tracing ---
// Span names are a fixed table, so recording a span allocates nothing. The
// layer is the part before the dot.
enum class SpanName : uint8_t {
  kDataSample,        // MiniBatchSampler::Next
  kMbOrder,           // mb::OrderSamples
  kRuntimePlan,       // IterationPlanner::PlanIteration
  kRuntimeEpoch,      // Trainer::RunEpoch
  kServiceNextPlan,   // PlanAheadService::NextPlan
  kServiceEncode,     // EncodeExecutionPlan
  kServiceDecode,     // TryDecodeExecutionPlan
  kServiceAckLag,     // executor completion -> monitor OnHeartbeat (wait)
  kTransportPush,     // InstructionStoreInterface::Push
  kTransportFetch,    // executor fetch
  kExecutorIteration, // fetch start -> iteration reported
  kExecutorWaitPlan,  // previous iteration done -> fetch start (wait)
  kExecutorHeartbeat, // heartbeat send
  kSimRun,            // ClusterSim::Run (+ executor bookkeeping)
  kCheckReference,    // cold serial reference re-plan (check phase)
  kCount,
};
const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kCount;
  bool wait = false;
  int32_t pid = 0;
  int32_t tid = 0;
  int32_t replica = -1;
  int64_t iteration = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  static SpanLog& Instance();

  // The first enable reserves room for a traced run's spans, so recording
  // never pauses to reallocate.
  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Records a span of this process and calling thread; no-op when disabled.
  void Record(SpanName name, double start_us, double end_us,
              int64_t iteration = -1, int32_t replica = -1, bool wait = false);
  // Records a span as given (executor spans, rebuilt from their records).
  void Add(const Span& span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Times its scope into the span log (reads no clock when disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, int64_t iteration = -1, int32_t replica = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanName name_;
  int64_t iteration_;
  int32_t replica_;
  double start_us_ = -1.0;
};

// Per-layer totals: span count, busy time (non-wait spans), self time (busy
// time not covered by a nested span on the same thread), and wait time.
struct LayerRow {
  std::string layer;
  int64_t count = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  double wait_ms = 0.0;
};
std::vector<LayerRow> LayerTable(const std::vector<Span>& spans);
std::string FormatLayerTable(const std::vector<LayerRow>& rows);
// Chrome/Perfetto trace JSON; the (iteration, replica) id rides in args.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace bench_e2e

#endif  // BENCH_E2E_HARNESS_H_
