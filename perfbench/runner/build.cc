// Workload `build`: the paper's Kernel Build mix (RunKernelBuildWorkload,
// MK40, one CPU), closed-loop, repeated with the same seed until the time
// budget is spent. Every repetition must reproduce the first one's model
// state exactly.
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "perfbench/runner/kstats.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

constexpr int kScale = 100;
constexpr int kTinyScale = 1;
constexpr std::size_t kMinReps = 3;

struct Rep {
  double setup_s = 0.0;  // Kernel, task, port and thread construction.
  double run_s = 0.0;    // Kernel::Run.
  std::uint64_t blocks = 0;
  mkc::Ticks vtime = 0;
  std::vector<std::uint64_t> state;
  LayerCounters counters;
};

struct HookArgs {
  double hook_at = 0.0;
  Rep* rep = nullptr;
};

void PostRun(mkc::Kernel& kernel, void* arg) {
  auto* h = static_cast<HookArgs*>(arg);
  h->hook_at = HostSeconds();
  h->rep->state = ModelSnapshot(kernel);
  h->rep->counters.Add(kernel);
}

Rep RunOnce(const Options& opt) {
  Rep rep;
  HookArgs hook;
  hook.rep = &rep;
  mkc::KernelConfig config;
  config.enable_handoff = !opt.no_handoff;
  mkc::WorkloadParams params;
  params.scale = opt.size == Size::kTiny ? kTinyScale : kScale;
  params.seed = opt.seed;
  params.post_run = &PostRun;
  params.post_run_arg = &hook;
  const double t0 = HostSeconds();
  mkc::WorkloadReport report = mkc::RunKernelBuildWorkload(config, params);
  // The workload times only Kernel::Run; everything before it is set-up.
  rep.run_s = report.wall_seconds;
  rep.setup_s = hook.hook_at - t0 - report.wall_seconds;
  rep.blocks = report.transfer.total_blocks;
  rep.vtime = report.virtual_time;
  return rep;
}

// The first repetition in full, and the host times of all of them. Later
// repetitions are checked against the first and then dropped, so the
// runner's own memory does not grow with the repetition count.
struct Pass {
  Rep first;
  std::vector<double> setup_s, run_s, block_ns, cal;
};

Pass RunPass(const Options& opt, double seconds, Result& res) {
  Pass pass;
  const double deadline = HostSeconds() + seconds;
  while (pass.run_s.size() < kMinReps || HostSeconds() < deadline) {
    const double cal0 = CalibrationNs();
    Rep rep = RunOnce(opt);
    const double cal = (cal0 + CalibrationNs()) / 2;
    res.attempted += rep.blocks;
    pass.setup_s.push_back(rep.setup_s);
    pass.cal.push_back(cal);
    pass.run_s.push_back(rep.run_s);
    pass.block_ns.push_back(rep.run_s * 1e9 / static_cast<double>(rep.blocks));
    if (pass.run_s.size() == 1) {
      pass.first = std::move(rep);
    } else if (rep.state != pass.first.state) {
      res.Check(false, "build: model state differs between repetitions of one seed");
      res.failed += rep.blocks;
    }
  }
  return pass;
}

double HostBlockNs(const Pass& pass, Result& res, const char* label) {
  const double block_ns = Calibrated(pass.block_ns, pass.cal);
  char line[240];
  std::snprintf(line, sizeof(line),
                "%s build: %.1f calibrated ns/block | raw p10 %.1f p50 %.1f p99 %.1f | "
                "calibration p50 %.1f us | %zu runs of %llu blocks",
                label, block_ns, Quantile(pass.block_ns, 0.1), Median(pass.block_ns),
                Quantile(pass.block_ns, 0.99), Median(pass.cal) / 1e3, pass.block_ns.size(),
                static_cast<unsigned long long>(pass.first.blocks));
  res.notes.push_back(line);
  return block_ns;
}

}  // namespace

Result RunBuild(const Options& opt) {
  Result res;
  const double budget = opt.size == Size::kTiny ? 0.0 : opt.seconds;
  Pass plain = RunPass(opt, opt.trace ? budget / 2 : budget, res);
  const double block_ns = HostBlockNs(plain, res, "untraced");
  const Rep& ref = plain.first;
  if (!opt.trace) {
    res.Add("setup_s", Median(plain.setup_s), "s");
    res.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    res.Add("sim_mcycles", static_cast<double>(ref.vtime) / 1e6, "Mcycles");
    res.Add("stack_kib_max", static_cast<double>(ref.counters.stack_bytes) / 1024.0, "KiB");
    res.Add("goodput_pct", Pct(res.attempted - res.failed, res.attempted), "%");
    res.Add("op_ns", block_ns, "ns");
    return res;
  }

  Pass traced = RunPass(opt, budget / 2, res);
  const double traced_block_ns = HostBlockNs(traced, res, "traced");
  res.Check(traced.first.state == ref.state,
            "build: model state differs between the traced and untraced passes");
  res.Add("trace.overhead_pct", 100.0 * (traced_block_ns - block_ns) / block_ns, "%");
  res.Add("machine.switch_ns", MachineSwitchNs(opt.size == Size::kTiny ? 3 : 51), "ns");
  res.Add("kern.setup.span_s", Median(traced.setup_s), "s");
  res.Add("kern.run.span_s", Median(traced.run_s), "s");
  AddLayerMetrics(traced.first.counters, res);
  return res;
}

}  // namespace perfbench
