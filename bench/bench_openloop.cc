// Overload-control gate: the knee experiment from the service fabric.
//
// Sweeps open-loop offered load across the service fabric's capacity knee,
// once with shedding disabled (the ablation) and once with queue-depth /
// deadline shedding armed. The closed-loop workloads in bench_table*_  can
// never show this curve — their clients self-throttle — so this bench is
// where the overload-control claim is actually measured:
//
//   * Without shedding, goodput (completions within deadline) collapses
//     past the knee even though raw throughput stays at capacity: every
//     admitted request waits behind an unbounded backlog until its
//     deadline is ancient history, and p99.9 grows with the run length.
//
//   * With shedding armed, stale requests are dropped at the client margin
//     and at the server, so the work that *is* done lands inside its
//     deadline: goodput stays near the knee rate and p99.9 stays bounded.
//
// The sweep, both curves, and the derived knee metrics go into the unified
// bench JSON. The gates in bench/baselines/openloop.json, run by the
// `perf_gate` ctest (tools/check_perf_regression.py --baseline-dir
// bench/baselines BENCH.json), hold the shed arm to >= 90% of knee goodput
// and the ablation to its collapse.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/kern/kernel.h"
#include "src/svc/service.h"
#include "src/workload/openloop.h"

namespace mkc {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr Ticks kDeadline = 60000;
constexpr std::uint32_t kShedDepth = 8;

// Offered rates (arrivals per Mtick). The single-CPU fabric's capacity on
// the default 4/4/4 shard mix sits near 600/Mtick, so the sweep brackets
// the knee with points at roughly 2x past it.
constexpr std::uint64_t kRates[] = {200, 300, 400, 600, 800, 1200, 1600, 2400};
constexpr int kNumRates = static_cast<int>(sizeof(kRates) / sizeof(kRates[0]));

struct ArmResult {
  std::uint64_t rate = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t goodput = 0;       // Completions within deadline.
  std::uint64_t shed = 0;
  Ticks p999 = 0;                  // Worst per-kind cumulative p99.9.
  Ticks vtime = 0;
  double goodput_rate = 0.0;       // Goodput per Mtick of virtual time.
};

ArmResult RunArm(std::uint64_t rate, std::uint32_t shed_depth, int scale) {
  KernelConfig config;
  config.seed = kSeed;
  Kernel kernel(config);

  OpenLoopParams op;
  op.rate = rate;
  op.seed = kSeed;
  op.deadline = kDeadline;
  op.shed_depth = shed_depth;
  op.total_arrivals = static_cast<std::uint64_t>(250) * scale;
  OpenLoopEngine engine(kernel, op);
  kernel.Run();
  OpenLoopReport rep = engine.Finish();

  ArmResult r;
  r.rate = rate;
  r.arrivals = rep.arrivals_total;
  r.goodput = rep.deadline_met_total;
  r.shed = rep.shed_total;
  r.vtime = rep.virtual_time;
  for (int k = 0; k < kServiceKindCount; ++k) {
    if (rep.latency[k].p999 > r.p999) {
      r.p999 = rep.latency[k].p999;
    }
  }
  r.goodput_rate = r.vtime > 0 ? 1e6 * static_cast<double>(r.goodput) /
                                     static_cast<double>(r.vtime)
                               : 0.0;
  return r;
}

std::string CurveJson(const ArmResult* arms, int n) {
  std::string out = "[";
  for (int i = 0; i < n; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"rate\":%llu,\"arrivals\":%llu,\"goodput\":%llu,"
                  "\"shed\":%llu,\"p999\":%llu,\"vtime\":%llu,"
                  "\"goodput_rate\":%.1f}",
                  i > 0 ? "," : "",
                  static_cast<unsigned long long>(arms[i].rate),
                  static_cast<unsigned long long>(arms[i].arrivals),
                  static_cast<unsigned long long>(arms[i].goodput),
                  static_cast<unsigned long long>(arms[i].shed),
                  static_cast<unsigned long long>(arms[i].p999),
                  static_cast<unsigned long long>(arms[i].vtime), arms[i].goodput_rate);
    out += buf;
  }
  out += "]";
  return out;
}

int Main(int argc, char** argv) {
  int scale = ScaleFromArgs(argc, argv, 2);

  ArmResult noshed[kNumRates];
  ArmResult shed[kNumRates];
  for (int i = 0; i < kNumRates; ++i) {
    noshed[i] = RunArm(kRates[i], /*shed_depth=*/0, scale);
    shed[i] = RunArm(kRates[i], kShedDepth, scale);
  }

  // The knee: the highest swept rate the unshedded fabric still serves with
  // >= 90% of arrivals inside their deadline.
  int knee = 0;
  for (int i = 0; i < kNumRates; ++i) {
    if (noshed[i].goodput * 10 >= noshed[i].arrivals * 9) {
      knee = i;
    }
  }
  // The overload point: the first swept rate at >= 2x the knee rate (the
  // last point if the sweep tops out earlier).
  int over = kNumRates - 1;
  for (int i = knee; i < kNumRates; ++i) {
    if (kRates[i] >= 2 * kRates[knee]) {
      over = i;
      break;
    }
  }

  const double knee_rate = noshed[knee].goodput_rate;
  const double noshed_over_ratio =
      noshed[over].arrivals > 0
          ? static_cast<double>(noshed[over].goodput) /
                static_cast<double>(noshed[over].arrivals)
          : 0.0;
  const double shed_vs_knee =
      knee_rate > 0.0 ? shed[over].goodput_rate / knee_rate : 0.0;

  std::printf("open-loop overload sweep: scale %d, seed %llu, deadline %llu, "
              "shed depth %u\n\n",
              scale, static_cast<unsigned long long>(kSeed),
              static_cast<unsigned long long>(kDeadline), kShedDepth);
  std::printf("%8s | %22s | %22s\n", "", "no shedding", "shedding armed");
  std::printf("%8s | %8s %6s %6s | %8s %6s %6s\n", "rate", "goodput", "g/Mt",
              "p99.9k", "goodput", "g/Mt", "p99.9k");
  for (int i = 0; i < kNumRates; ++i) {
    std::printf("%8llu | %4llu/%-4llu %6.0f %5lluk | %4llu/%-4llu %6.0f %5lluk%s\n",
                static_cast<unsigned long long>(kRates[i]),
                static_cast<unsigned long long>(noshed[i].goodput),
                static_cast<unsigned long long>(noshed[i].arrivals),
                noshed[i].goodput_rate,
                static_cast<unsigned long long>(noshed[i].p999 / 1000),
                static_cast<unsigned long long>(shed[i].goodput),
                static_cast<unsigned long long>(shed[i].arrivals),
                shed[i].goodput_rate,
                static_cast<unsigned long long>(shed[i].p999 / 1000),
                i == knee ? "   <- knee" : (i == over ? "   <- 2x knee" : ""));
  }
  std::printf("\nknee %llu/Mtick (goodput rate %.0f); at %llu/Mtick unshedded "
              "goodput falls to %.0f%% with p99.9 %.1fx the deadline, shedding "
              "holds %.0f%% of knee goodput with p99.9 %.1fx\n",
              static_cast<unsigned long long>(kRates[knee]), knee_rate,
              static_cast<unsigned long long>(kRates[over]),
              100.0 * noshed_over_ratio,
              static_cast<double>(noshed[over].p999) / kDeadline,
              100.0 * shed_vs_knee,
              static_cast<double>(shed[over].p999) / kDeadline);

  BenchJsonBuilder("openloop")
      .Config("scale", scale)
      .Config("seed", static_cast<unsigned long long>(kSeed))
      .Config("deadline", static_cast<unsigned long long>(kDeadline))
      .Config("shed_depth", static_cast<unsigned long long>(kShedDepth))
      .MetricJson("noshed_curve", CurveJson(noshed, kNumRates))
      .MetricJson("shed_curve", CurveJson(shed, kNumRates))
      .Metric("knee_rate", static_cast<unsigned long long>(kRates[knee]))
      .Metric("knee_goodput_rate", knee_rate)
      .Metric("overload_rate", static_cast<unsigned long long>(kRates[over]))
      .Metric("noshed_overload_goodput_ratio", noshed_over_ratio)
      .Metric("noshed_overload_p999",
              static_cast<unsigned long long>(noshed[over].p999))
      .Metric("shed_overload_goodput_rate", shed[over].goodput_rate)
      .Metric("shed_overload_p999", static_cast<unsigned long long>(shed[over].p999))
      .Metric("shed_vs_knee_ratio", shed_vs_knee)
      .Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
