// Shared types for the repository benchmark runner: run options, the result
// record every workload fills, order statistics, and the host clocks.
//
// Two clocks appear in every result. Host numbers (ns, s, MiB) are what the
// simulator costs to run on the host and vary from run to run. Model
// numbers (Mcycles, KiB of kernel stacks, percentages of simulated work)
// come from the DS3100 cycle model and the kernel's own counters; they are
// exact and must repeat bit-for-bit for a given seed.
#ifndef PERFBENCH_RUNNER_BENCH_H_
#define PERFBENCH_RUNNER_BENCH_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test knobs, never passed by the benchmark command itself.
  Size size = Size::kFull;
  bool no_handoff = false;  // KernelConfig::enable_handoff = false on MK40.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `correct` turns false on the first failed
// check; every failed check is kept for the human-readable log.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // Printed before the JSON line.

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

inline double HostSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

inline std::int64_t HostNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process in MiB: the VmHWM line of
// /proc/self/status. (getrusage's ru_maxrss would also count the parent's
// memory from before exec.) 0 if unavailable.
inline double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Host cost figures (op_ns and the per-op op.*_ns) are calibrated: the 10th
// percentile of a run's batch (or repetition) times, divided by the 10th
// percentile of the CalibrationNs() readings taken beside them, scaled by
// kCalibrationRefNs. On the shared 4-vCPU x86-64 cloud VM the benchmark was
// tuned on, the host switched between faster and slower states for seconds
// to minutes at a time (null RPC batches at ~400 vs ~680 ns), which moved a
// 20 s run's median by up to a third. The low percentile keeps the
// batches run in the fast state; the division removes the share of a
// slowdown that also slows the calibration block. The result reads as ns on
// a machine whose calibration block takes kCalibrationRefNs.
constexpr double kHostQuantile = 0.1;
constexpr double kCalibrationRefNs = 500000.0;

inline double Calibrated(const std::vector<double>& ns, const std::vector<double>& cal) {
  return Quantile(ns, kHostQuantile) / Quantile(cal, kHostQuantile) * kCalibrationRefNs;
}

inline double GeoMean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) {
    log_sum += std::log(x);
  }
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

inline double Pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

inline double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Host ns for a fixed block of runner-owned, branch-heavy work: sorting
// 4096 pseudo-random integers, then 15000 calls through a 16-entry table of
// functions picked at random. It shares no code with the simulator, so a
// change to the repository cannot move it. Of the candidates tried on that
// VM (integer arithmetic, random loads, hash and tree lookups, sorting,
// indirect calls), sorting and indirect calls tracked the simulator's
// slowdowns most closely (correlation 0.92-0.98 over 2 s intervals), which
// suggests branch-predictor contention.
namespace calibration {
using Fn = std::uint64_t (*)(std::uint64_t);
template <int N>
std::uint64_t Step(std::uint64_t x) {
  return x * (2 * N + 1) + N;
}
template <int... I>
constexpr std::array<Fn, sizeof...(I)> Table(std::integer_sequence<int, I...>) {
  return {&Step<I>...};
}
inline constexpr std::array<Fn, 16> kTable = Table(std::make_integer_sequence<int, 16>{});
inline volatile std::uint64_t sink = 0;
}  // namespace calibration

inline double CalibrationNs() {
  static std::vector<std::uint32_t> buf(4096);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t& v : buf) {
    v = static_cast<std::uint32_t>(next());
  }
  const std::int64_t t0 = HostNanos();
  std::sort(buf.begin(), buf.end());
  std::uint64_t acc = buf[buf.size() / 2];
  for (int i = 0; i < 15000; ++i) {
    acc += calibration::kTable[next() & 15](acc);
  }
  calibration::sink = acc;
  return static_cast<double>(HostNanos() - t0);
}

// Raw MakeContext + ContextSwitch round trip on two runner-owned contexts,
// ns per round trip (median of `batches` batches): the machine layer's
// floor under every kernel control transfer.
double MachineSwitchNs(int batches);

Result RunTransfer(const Options& opt);
Result RunBuild(const Options& opt);
Result RunOpenLoop(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_BENCH_H_
