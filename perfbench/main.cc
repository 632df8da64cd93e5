// perfbench: the end-to-end, layer-attributed benchmark of roicl's
// deployed path. One invocation runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --out-dir DIR [--git-sha SHA --git-dirty 0|1]
//
// It prints every metric by name with its unit, then, as the last line
// of stdout, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced
// pass with --trace 1. The full record (stamp, notes, every metric) goes
// to DIR/record-<workload>-seed<N>-trace<0|1>.json. It exits non-zero
// when an output check fails. perfbench/run.py builds and runs it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/log.h"

namespace roicl::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py cross-checks every result line).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"rows_per_s", "rows/s"},
    {"ok_frac", "frac"},    {"peak_rss_mib", "MiB"},
    {"revenue_per_cost", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve_p50_ms.light", "ms"},
    {"serve_p99_ms.light", "ms"},
    {"serve_p50_ms.busy", "ms"},
    {"serve_p99_ms.busy", "ms"},
    {"serve_points_invalid", "count"},
    {"serve_max_rps", "1/s"},
    {"core.mc_dropout.s", "s"},
    {"core.mc_dropout.calls", "count"},
    {"core.mc_dropout.forward_rows", "count"},
    {"pipeline.score_s", "s"},
    {"pipeline.score_intervals_s", "s"},
    {"data.read_csv_s", "s"},
    {"data.read_csv_mb_per_s", "MB/s"},
    {"pipeline.load_s", "s"},
    {"core.greedy_allocate_s", "s"},
    {"pipeline.service.queue_us.p50", "us"},
    {"pipeline.service.queue_us.p99", "us"},
    {"pipeline.service.score_us.p50", "us"},
    {"pipeline.service.score_us.p99", "us"},
    {"pipeline.service.conformal_us.p99", "us"},
    {"pipeline.service.batch_occupancy", "requests"},
    {"pipeline.service.rejected", "count"},
    {"pipeline.service.deadline_exceeded", "count"},
    {"pipeline.service.errors", "count"},
    {"monitor.observe_us.p50", "us"},
    {"monitor.observe_us.p99", "us"},
    {"monitor.add_outcomes_ms", "ms"},
    {"monitor.recalibrate_ms.p50", "ms"},
    {"monitor.recalibrate_ms.p99", "ms"},
    {"monitor.recalibrations", "count"},
    {"alloc.total_cost_s", "s"},
    {"alloc.greedy_s", "s"},
    {"alloc.dual_s", "s"},
    {"alloc.peak_mib.greedy", "MiB"},
    {"alloc.peak_mib.dual", "MiB"},
    {"alloc.frontier_evictions", "count"},
    {"alloc.merge_candidates", "count"},
    {"alloc.dual_gap", "revenue"},
    {"campaign.karm_s", "s"},
    {"campaign.peak_mib", "MiB"},
    {"common.thread_pool.tasks", "count"},
    {"process.cpu_util", "frac"},
    {"trace.unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "batch_rdrp|batch_drp|serve_rdrp|alloc_10m --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR "
               "[--git-sha SHA] [--git-dirty 0|1]\n",
               message);
  std::exit(2);
}

std::string FullDigits(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Jiffies the hypervisor ran other guests on this machine's CPUs (the
/// "steal" column of /proc/stat) and all jiffies, for the record's
/// cpu_steal_frac: host contention that no program change can remove.
struct CpuJiffies {
  double steal = 0.0;
  double total = 0.0;
};

CpuJiffies ReadCpuJiffies() {
  CpuJiffies jiffies;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double value = 0.0;
  for (int column = 0; column < 10 && (stat >> value); ++column) {
    jiffies.total += value;
    if (column == 7) jiffies.steal = value;
  }
  return jiffies;
}

/// Identity of the measured build and machine state, for every record.
void Stamp(const RunArgs& args, const std::string& git_sha,
           const std::string& git_dirty, Outcome* outcome) {
  outcome->Note("workload", args.workload);
  outcome->Note("seed", static_cast<double>(args.seed));
  outcome->Note("seconds", args.seconds);
  outcome->Note("trace", args.trace ? 1.0 : 0.0);
  outcome->Note("git_sha", git_sha);
  outcome->Note("git_dirty", git_dirty);
  outcome->Note("nproc", NumCpus());
  outcome->Note("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  outcome->Note("compiler", std::string("clang ") + __clang_version__);
#else
  outcome->Note("compiler", std::string("gcc ") + __VERSION__);
#endif
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) == 3) {
    outcome->NoteJson("loadavg_start",
                      JsonNumberList({load[0], load[1], load[2]}));
  }
  std::string build_type = PERFBENCH_BUILD_TYPE;
  bool debug = build_type == "Debug" || build_type.empty();
  // GCC and clang define these under -fsanitize=address / thread.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  outcome->Note("sanitized", sanitized ? "yes" : "no");
  if (debug || sanitized) {
    outcome->Note("warning", std::string(debug ? "unoptimized" : "sanitized") +
                                 " build: timings are not comparable");
    std::fprintf(stderr, "perfbench: WARNING: %s build, timings are not "
                         "comparable\n",
                 debug ? "unoptimized" : "sanitized");
  }
}

std::string MetricsJson(const std::map<std::string, double>& values,
                        const MetricDef* defs, size_t count) {
  std::string json = "{";
  for (size_t i = 0; i < count; ++i) {
    // JSON has no inf or nan: a non-finite metric is a benchmark bug.
    if (!std::isfinite(values.at(defs[i].name))) {
      Die(std::string("metric ") + defs[i].name + " is not finite");
    }
    if (i > 0) json += ", ";
    json += JsonString(defs[i].name) + ": {\"value\": " +
            FullDigits(values.at(defs[i].name)) + ", \"unit\": " +
            JsonString(defs[i].unit) + "}";
  }
  return json + "}";
}

}  // namespace

int Main(int argc, char** argv) {
  RunArgs args;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--git-dirty") {
      git_dirty = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_trace || !(args.seconds > 0.0) ||
      args.work_dir.empty() || args.out_dir.empty()) {
    Usage("--workload, --trace 0|1, --seconds > 0, --work-dir and "
          "--out-dir are required");
  }
  obs::Logger::Global().SetLevel(obs::LogLevel::kWarn);

  Outcome outcome;
  Stamp(args, git_sha, git_dirty, &outcome);
  const CpuJiffies jiffies_start = ReadCpuJiffies();
  if (args.workload == "batch_rdrp") {
    RunBatchWorkload(args, "rdrp", &outcome);
  } else if (args.workload == "batch_drp") {
    RunBatchWorkload(args, "drp", &outcome);
  } else if (args.workload == "serve_rdrp") {
    RunServeWorkload(args, &outcome);
  } else if (args.workload == "alloc_10m") {
    RunAllocWorkload(args, &outcome);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  const CpuJiffies jiffies_end = ReadCpuJiffies();
  if (jiffies_end.total > jiffies_start.total) {
    outcome.Note("cpu_steal_frac",
                 (jiffies_end.steal - jiffies_start.steal) /
                     (jiffies_end.total - jiffies_start.total));
  }
  std::map<std::string, double> end_to_end = outcome.end_to_end();
  end_to_end["ok_frac"] =
      1.0 - static_cast<double>(outcome.failed()) /
                static_cast<double>(std::max<int64_t>(1, outcome.attempted()));
  end_to_end["peak_rss_mib"] = PeakRssMib();
  for (const MetricDef& def : kEndToEnd) {
    if (end_to_end.count(def.name) == 0) {
      Die(std::string("workload did not measure ") + def.name);
    }
  }
  // A layer a workload never reaches reads 0 (absent).
  std::map<std::string, double> per_layer;
  for (const MetricDef& def : kPerLayer) per_layer[def.name] = 0.0;
  for (const auto& [name, value] : outcome.layer()) {
    if (per_layer.count(name) == 0) Die("unlisted per-layer metric " + name);
    per_layer[name] = value;
  }

  std::string e2e_json =
      MetricsJson(end_to_end, kEndToEnd, std::size(kEndToEnd));
  std::string layer_json =
      args.trace ? MetricsJson(per_layer, kPerLayer, std::size(kPerLayer))
                 : "{}";
  std::vector<std::string> failures;
  for (const std::string& failure : outcome.check_failures()) {
    failures.push_back(JsonString(failure));
  }

  std::string record = "{\"correct\": " +
                       std::string(outcome.correct() ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(outcome.attempted()) +
                       ", \"failed\": " + std::to_string(outcome.failed()) +
                       ", \"check_failures\": " + JsonList(failures) +
                       ", \"end_to_end\": " + e2e_json +
                       ", \"per_layer\": " + layer_json + ", \"notes\": {";
  bool first = true;
  for (const auto& [name, json] : outcome.notes()) {
    record += (first ? "" : ", ") + JsonString(name) + ": " + json;
    first = false;
  }
  record += "}}\n";
  std::string record_path = args.out_dir + "/record-" + args.workload +
                            "-seed" + std::to_string(args.seed) + "-trace" +
                            (args.trace ? "1" : "0") + ".json";
  std::ofstream(record_path) << record;

  const auto& printed = args.trace ? per_layer : end_to_end;
  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  size_t count = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::printf("# %s seed=%llu trace=%d record=%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              record_path.c_str());
  for (size_t i = 0; i < count; ++i) {
    std::printf("# %-36s %16.6g %s\n", defs[i].name,
                printed.at(defs[i].name), defs[i].unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.correct() ? "true" : "false",
              static_cast<long long>(outcome.attempted()),
              static_cast<long long>(outcome.failed()),
              (args.trace ? layer_json : e2e_json).c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}

}  // namespace roicl::perfbench

int main(int argc, char** argv) { return roicl::perfbench::Main(argc, argv); }
