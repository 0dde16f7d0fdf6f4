// perfbench: the repository's real-time benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//   perfbench --self-test
//   perfbench --list              (workload names, one a line)
//
// Prints `# env` and `# detail` lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Also writes that object,
// with the environment stamp and detail, to <out-dir>/result-*.json, and the
// traced run's spans to <out-dir>/spans-*.json. Exits nonzero on a
// verification mismatch or a tripped program invariant.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/simd.h"
#include "core/config.h"
#include "obs/trace.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>]\n"
               "       perfbench --self-test | --list\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(std::optional<double> v) {
  if (!v.has_value() || !std::isfinite(*v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", *v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin what the program reads from the environment before its first read:
  // scale and per-op budget fixed, trace sampling at the program default,
  // no profiler, the default kernel backend.
  setenv("GENBASE_SCALE", "0.08", 1);
  setenv("GENBASE_TIMEOUT", "40", 1);
  unsetenv("GENBASE_TRACE_SAMPLE");
  unsetenv("GENBASE_PROFILE");
  unsetenv("GENBASE_KERNEL_BACKEND");

  perfbench::RunConfig config;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::RunSelfTests() == 0 ? 0 : 1;
    if (arg == "--list") {
      for (const std::string& n : perfbench::WorkloadNames()) {
        std::printf("%s\n", n.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config.seconds > 0 && config.seconds <= 3600;
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage();
    return 2;
  }
  bool known = false;
  for (const std::string& n : perfbench::WorkloadNames()) {
    known |= n == config.workload;
  }
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }

  const auto& sim = genbase::core::SimConfig::Get();
  const std::string env =
      "{\"workload\":" + JsonString(config.workload) +
      ",\"seed\":" + std::to_string(config.seed) +
      ",\"seconds\":" + JsonNumber(config.seconds) +
      ",\"trace\":" + (config.trace ? "1" : "0") +
      ",\"GENBASE_SCALE\":" + JsonNumber(sim.scale) +
      ",\"GENBASE_TIMEOUT\":" + JsonNumber(sim.timeout_seconds) +
      ",\"trace_sample\":" +
      JsonNumber(genbase::obs::Tracer::Global().sample_rate()) +
      ",\"backend\":" +
      JsonString(genbase::simd::BackendName(genbase::simd::ActiveBackend())) +
      ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ",\"git_sha\":" + JsonString(git_sha) + "}";
  std::printf("# env %s\n", env.c_str());
  std::fflush(stdout);

  perfbench::RunOutput out;
  perfbench::RunWorkload(config, &out);
  for (const std::string& n : out.notes) {
    std::fprintf(stderr, "perfbench: %s\n", n.c_str());
  }

  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const std::string result =
      std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {" +
      metrics + "}}";
  const std::string report_path =
      config.out_dir + "/result-" + config.workload + "-seed" +
      std::to_string(config.seed) + "-trace" + (config.trace ? "1" : "0") +
      ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "{\"env\": %s,\n\"detail\": %s,\n\"result\": %s}\n",
                 env.c_str(),
                 out.detail_json.empty() ? "{}" : out.detail_json.c_str(),
                 result.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 report_path.c_str());
  }
  std::printf("# detail %s\n%s\n",
              out.detail_json.empty() ? "{}" : out.detail_json.c_str(),
              result.c_str());
  return out.correct ? 0 : 1;
}
