// The benchmark binary. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints the host stamp, every metric by name and unit, the exact counts of
// the determinism check, and as its last line one JSON object with the
// correctness verdict, attempts, failures, and the end-to-end and per-layer
// metrics. perfbench/run.py builds this binary and reshapes that line into
// the benchmark's result. Refuses to run (exit 3, no result) when fault
// injection is active.
#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "fft/simd_fft.h"

namespace {

using perfbench::Report;

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

bool parse(int argc, char** argv, perfbench::Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      o.trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else {
      return false;
    }
    if (end && *end) return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

void print_metrics(const char* key, const std::vector<Report::Metric>& ms) {
  std::printf("\"%s\":{", key);
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}");
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  using Run = void (*)(const perfbench::Options&, perfbench::Tracer&, Report&);
  Run run = nullptr;
  if (o.workload == "interactive-mul8cmp-m2") run = perfbench::run_interactive;
  if (o.workload == "batch8-mul8cmp-m3") run = perfbench::run_batch8;
  if (o.workload == "sim-policy-4chip") run = perfbench::run_sim;
  if (!run) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  // Host stamp. A run measured with fault injection armed measures the
  // fault path, not the product: refuse to report one.
  auto& faults = matcha::fault::Registry::instance();
  const char* faults_env = std::getenv("MATCHA_FAULTS");
  const char* simd_env = std::getenv("MATCHA_SIMD");
  o.threads = usable_cpus();
  const matcha::SimdFftEngine probe(1024);
  std::printf("host nproc=%d hardware_concurrency=%u simd=%s MATCHA_SIMD=%s "
              "build=%s faults_compiled_in=%d faults_active=%d "
              "MATCHA_FAULTS=%s\n",
              o.threads, std::thread::hardware_concurrency(), probe.level_name(),
              simd_env ? simd_env : "(unset)", PERFBENCH_BUILD_TYPE,
              matcha::fault::compiled_in() ? 1 : 0, faults.active() ? 1 : 0,
              faults_env ? faults_env : "(unset)");
  if (faults.active() || (faults_env && *faults_env)) {
    std::fprintf(stderr, "perfbench: refusing to measure with fault injection active\n");
    return 3;
  }
  std::printf("workload %s seed %llu seconds %g trace %d threads %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.threads);

  perfbench::Tracer tracer(o.trace);
  Report r;
  try {
    run(o, tracer, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (faults.total_fires() != 0) r.problem("fault sites fired during the run");

  if (o.trace) {
    for (const auto& [name, ms] : tracer.self_ms()) {
      std::printf("self %-36s %12.3f ms\n", name.c_str(), ms);
    }
    if (!o.trace_out.empty()) {
      if (tracer.write_chrome(o.trace_out)) {
        std::printf("wrote %zu spans to %s\n", tracer.spans().size(), o.trace_out.c_str());
      } else {
        r.problem("could not write " + o.trace_out);
      }
    }
  }
  for (const auto* set : {&r.end_to_end, &r.per_layer}) {
    for (const auto& m : *set) {
      std::printf("metric %-38s %-22.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("circuits attempted %lld failed %lld\n",
              static_cast<long long>(r.attempted), static_cast<long long>(r.failed));
  for (const auto& p : r.problems) std::printf("PROBLEM %s\n", p.c_str());

  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,",
              r.problems.empty() ? "true" : "false",
              static_cast<long long>(r.attempted), static_cast<long long>(r.failed));
  print_metrics("end_to_end", r.end_to_end);
  std::printf(",");
  print_metrics("per_layer", r.per_layer);
  std::printf("}\n");
  return 0;
}
