// Telemetry overhead gate: the SLO tracker must be a pure observer.
//
// Runs the server-farm RPC workload twice with identical (scale, seed) —
// once with every recorder off, once with the windowed SLO tracker armed —
// and compares virtual time. The tracker charges zero cycles by design
// (span bookkeeping happens outside the cycle model), so the two runs must
// land on the *same* virtual tick; the perf gate holds the delta under 1%
// so any future accounting change that starts billing observation to the
// simulation is caught immediately.
//
// With MACHCONT_BENCH_JSON set, writes the unified bench JSON, which the
// `perf_gate` ctest checks against bench/baselines/slo.json
// (tools/check_perf_regression.py --baseline-dir bench/baselines BENCH.json).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/kern/kernel.h"
#include "src/obs/slo.h"
#include "src/workload/workload.h"

namespace mkc {
namespace {

constexpr std::uint64_t kSeed = 42;

struct SloCapture {
  std::uint64_t spans = 0;
  std::uint64_t rpc_count = 0;
  Ticks rpc_p50 = 0;
  Ticks rpc_p99 = 0;
  Ticks rpc_p999 = 0;
  std::uint64_t rpc_violations = 0;
};

void CaptureSlo(Kernel& kernel, void* arg) {
  auto* cap = static_cast<SloCapture*>(arg);
  if (kernel.slo() == nullptr) {
    return;
  }
  cap->spans = kernel.slo()->spans_recorded();
  SloKindSnapshot s = kernel.slo()->CumulativeKind(0);  // rpc
  cap->rpc_count = s.count;
  cap->rpc_p50 = s.p50;
  cap->rpc_p99 = s.p99;
  cap->rpc_p999 = s.p999;
  cap->rpc_violations = s.violations;
}

int Main(int argc, char** argv) {
  int scale = ScaleFromArgs(argc, argv, 5);

  WorkloadParams params;
  params.scale = scale;
  params.seed = kSeed;

  KernelConfig off;
  WorkloadReport r_off = RunServerFarmWorkload(off, params);

  KernelConfig armed;
  armed.slo_window = 200000;
  SloCapture cap;
  params.post_run = &CaptureSlo;
  params.post_run_arg = &cap;
  WorkloadReport r_slo = RunServerFarmWorkload(armed, params);

  double overhead_pct =
      r_off.virtual_time > 0
          ? 100.0 *
                (static_cast<double>(r_slo.virtual_time) -
                 static_cast<double>(r_off.virtual_time)) /
                static_cast<double>(r_off.virtual_time)
          : 0.0;

  std::printf("slo overhead: server-farm RPC workload, scale %d, seed %llu\n\n",
              scale, static_cast<unsigned long long>(kSeed));
  std::printf("%-24s %14s\n", "configuration", "virtual ticks");
  std::printf("%-24s %14llu\n", "recorders off",
              static_cast<unsigned long long>(r_off.virtual_time));
  std::printf("%-24s %14llu\n", "slo armed (200k window)",
              static_cast<unsigned long long>(r_slo.virtual_time));
  std::printf("\noverhead %.4f%% (must be < 1%%; expected exactly 0 — the "
              "tracker charges no cycles)\n", overhead_pct);
  std::printf("rpc spans %llu: p50=%llu p99=%llu p99.9=%llu violations=%llu\n",
              static_cast<unsigned long long>(cap.rpc_count),
              static_cast<unsigned long long>(cap.rpc_p50),
              static_cast<unsigned long long>(cap.rpc_p99),
              static_cast<unsigned long long>(cap.rpc_p999),
              static_cast<unsigned long long>(cap.rpc_violations));

  BenchJsonBuilder("slo")
      .Config("workload", "farm")
      .Config("scale", scale)
      .Config("seed", static_cast<unsigned long long>(kSeed))
      .Config("slo_window", 200000)
      .Metric("vtime_off", static_cast<unsigned long long>(r_off.virtual_time))
      .Metric("vtime_slo", static_cast<unsigned long long>(r_slo.virtual_time))
      .Metric("overhead_pct", overhead_pct)
      .Metric("rpc_spans", static_cast<unsigned long long>(cap.rpc_count))
      .Metric("rpc_p99", static_cast<unsigned long long>(cap.rpc_p99))
      .Metric("rpc_p999", static_cast<unsigned long long>(cap.rpc_p999))
      .Metric("rpc_violations", static_cast<unsigned long long>(cap.rpc_violations))
      .Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
