#include "bench_e2e/harness.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/common/stats.h"

namespace bench_e2e {

double NowUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double ProcessCpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

double PercentileOr0(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : dynapipe::Percentile(values, p);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string ResultJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // Full precision: the value is reported as measured.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kDataSample: return "data.sample";
    case SpanName::kMbOrder: return "mb.order";
    case SpanName::kRuntimePlan: return "runtime.plan";
    case SpanName::kRuntimeEpoch: return "runtime.epoch";
    case SpanName::kServiceNextPlan: return "service.next_plan";
    case SpanName::kServiceEncode: return "service.encode";
    case SpanName::kServiceDecode: return "service.decode";
    case SpanName::kServiceAckLag: return "service.ack_lag";
    case SpanName::kTransportPush: return "transport.push";
    case SpanName::kTransportFetch: return "transport.fetch";
    case SpanName::kExecutorIteration: return "executor.iteration";
    case SpanName::kExecutorWaitPlan: return "executor.wait_plan";
    case SpanName::kExecutorHeartbeat: return "executor.heartbeat";
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kCheckReference: return "check.reference_plan";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanLog& SpanLog::Instance() {
  static SpanLog log;
  return log;
}

void SpanLog::set_enabled(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.capacity() == 0) {
      spans_.reserve(size_t{1} << 21);
    }
  }
  enabled_.store(on, std::memory_order_relaxed);
}

void SpanLog::Record(SpanName name, double start_us, double end_us,
                     int64_t iteration, int32_t replica, bool wait) {
  if (!enabled()) {
    return;
  }
  Span span;
  span.name = name;
  span.wait = wait;
  span.pid = static_cast<int32_t>(::getpid());
  span.tid = static_cast<int32_t>(::syscall(SYS_gettid));
  span.replica = replica;
  span.iteration = iteration;
  span.start_us = start_us;
  span.end_us = end_us;
  Add(span);
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

ScopedSpan::ScopedSpan(SpanName name, int64_t iteration, int32_t replica)
    : name_(name), iteration_(iteration), replica_(replica) {
  if (SpanLog::Instance().enabled()) {
    start_us_ = NowUs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (start_us_ >= 0.0) {
    SpanLog::Instance().Record(name_, start_us_, NowUs(), iteration_,
                               replica_);
  }
}

std::vector<LayerRow> LayerTable(const std::vector<Span>& spans) {
  // Self time: walk each thread's spans in start order with a stack of open
  // spans; a span's self time is its duration minus the time its directly
  // nested spans cover.
  std::map<std::pair<int32_t, int32_t>, std::vector<const Span*>> by_thread;
  for (const Span& s : spans) {
    by_thread[{s.pid, s.tid}].push_back(&s);
  }
  std::map<std::string, LayerRow> rows;
  const auto layer_of = [](const Span& s) {
    const std::string name = SpanNameString(s.name);
    return name.substr(0, name.find('.'));
  };
  for (auto& [thread, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->end_us > b->end_us;
    });
    std::vector<double> child_us(list.size(), 0.0);
    std::vector<size_t> open;
    for (size_t i = 0; i < list.size(); ++i) {
      while (!open.empty() && list[open.back()]->end_us <= list[i]->start_us) {
        open.pop_back();
      }
      if (!open.empty()) {
        const Span& parent = *list[open.back()];
        child_us[open.back()] +=
            std::min(parent.end_us, list[i]->end_us) - list[i]->start_us;
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const Span& s = *list[i];
      LayerRow& row = rows[layer_of(s)];
      row.layer = layer_of(s);
      ++row.count;
      const double ms = (s.end_us - s.start_us) / 1e3;
      if (s.wait) {
        row.wait_ms += ms;
      } else {
        row.busy_ms += ms;
        row.self_ms += std::max(0.0, ms - child_us[i] / 1e3);
      }
    }
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) {
    out.push_back(row);
  }
  return out;
}

std::string FormatLayerTable(const std::vector<LayerRow>& rows) {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %12s %12s %12s\n", "layer",
                "count", "busy_ms", "self_ms", "wait_ms");
  out << line;
  for (const LayerRow& r : rows) {
    std::snprintf(line, sizeof(line), "%-10s %10lld %12.3f %12.3f %12.3f\n",
                  r.layer.c_str(), static_cast<long long>(r.count), r.busy_ms,
                  r.self_ms, r.wait_ms);
    out << line;
  }
  return out.str();
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[";
  char buf[320];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"iteration\":%lld,\"replica\":%d}}",
                  i == 0 ? "" : ",\n", SpanNameString(s.name),
                  s.wait ? "wait" : "busy", s.pid, s.tid, s.start_us,
                  std::max(0.0, s.end_us - s.start_us),
                  static_cast<long long>(s.iteration), s.replica);
    out << buf;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace bench_e2e
