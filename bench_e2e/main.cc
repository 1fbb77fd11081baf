// bench_e2e: the end-to-end benchmark (see README.md in this directory).
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   bench_e2e --self-test
//   bench_e2e --packing-baseline
//
// Prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
// per-layer metrics traced. A traced run also prints the per-layer table and
// writes one Chrome/Perfetto trace under --out-dir.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_e2e/harness.h"
#include "bench_e2e/workloads.h"

namespace {

using bench_e2e::Args;

constexpr size_t kTraceFileSpans = 200'000;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "<t5-trainer-q64|gpt-fleet-shm|gpt-replay-mux> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       bench_e2e --self-test | --packing-baseline\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start_us = bench_e2e::NowUs();
  Args args;
  bool self_test = false;
  bool packing_baseline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (flag == "--packing-baseline") {
      packing_baseline = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (::mkdir(args.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Usage(("cannot create " + args.out_dir).c_str());
  }
  if (self_test) {
    return bench_e2e::RunSelfTest(process_start_us);
  }
  if (packing_baseline) {
    return bench_e2e::RunPackingBaseline();
  }
  if (!(args.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }

  bench_e2e::RunResult result;
  if (args.workload == "t5-trainer-q64") {
    result = bench_e2e::RunTrainer(args, process_start_us);
  } else if (args.workload == "gpt-fleet-shm") {
    result = bench_e2e::RunFleet(args, process_start_us, false).result;
  } else if (args.workload == "gpt-replay-mux") {
    result = bench_e2e::RunFleet(args, process_start_us, true).result;
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "[%s] check failed: %s\n", args.workload.c_str(),
                 failure.c_str());
  }
  if (args.trace) {
    const std::vector<bench_e2e::Span> spans =
        bench_e2e::SpanLog::Instance().Take();
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::printf("per-layer table (%s, traced half, %zu spans):\n%s",
                args.workload.c_str(), spans.size(),
                bench_e2e::FormatLayerTable(bench_e2e::LayerTable(spans))
                    .c_str());
    // The file keeps the earliest spans of the traced half (a replayed
    // fleet records about a million); the table above counts them all.
    std::vector<bench_e2e::Span> head = spans;
    std::sort(head.begin(), head.end(),
              [](const bench_e2e::Span& a, const bench_e2e::Span& b) {
                return a.start_us < b.start_us;
              });
    head.resize(std::min(head.size(), kTraceFileSpans));
    if (bench_e2e::WriteChromeTrace(path, head)) {
      std::printf("trace of %zu spans written to %s\n", head.size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", bench_e2e::ResultJson(result).c_str());
  std::fflush(stdout);
  return 0;
}
