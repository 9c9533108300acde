// machcont_sim — command-line driver for the simulator.
//
//   machcont_sim [options]
//     --workload=compile|build|dos|farm|rpc  workload       (default compile)
//                                    (rpc = alias for farm: client/server RPC)
//     --model=mk40|mk32|mach25       kernel model           (default mk40)
//     --scale=N                      work multiplier        (default 5)
//     --cpus=N                       simulated processors   (default 1)
//     --seed=N                       workload RNG seed      (default 42)
//     --quantum=N                    scheduling quantum     (default 10000)
//     --pages=N                      physical pages         (default 4096)
//     --no-handoff                   disable stack handoff  (MK40 ablation)
//     --no-recognition               disable recognition    (MK40 ablation)
//     --table                        print the Table 1/2 style breakdown
//     --hist                         print the latency histogram summary
//     --trace=N                      trace ring capacity (0 disables)
//     --trace-out=FILE               write Chrome trace-event JSON (Perfetto)
//     --metrics-json=FILE|-          write the metrics registry as JSON
//     --profile=N                    virtual-cycle sampling profiler, period N
//     --profile-out=FILE|-           write the folded-stack profile
//     --flight=N                     flight recorder snapshot period N
//     --flight-out=FILE|-            write the flight recorder JSONL
//     --watchdog=N                   stall watchdog threshold N ticks
//     --nodes=N                      simulated machines     (default 1)
//     --drop=RATE                    network drop probability [0,1)
//     --reorder=RATE                 network reorder probability [0,1)
//     --slo                          arm the windowed SLO tracker
//     --slo-window=N                 SLO sliding window width (implies --slo)
//     --slo-subwindows=N             sub-windows per window   (default 8)
//     --slo-target-rpc=N             rpc latency target ticks (default 25000)
//     --slo-target-fault=N           fault target ticks       (default 12000)
//     --slo-target-exc=N             exception target ticks   (default 12000)
//     --slo-out=FILE|-               write per-window SLO JSONL (implies --slo)
//     --tail-sample                  tail-sample the trace ring (auto with
//                                    --slo + --trace; --no-tail-sample opts out)
//     --tail-k=N                     slowest spans kept per kind (default 8)
//     --head-every=N                 deterministic 1-in-N head sample (default 64)
//     --telemetry=N                  in-band telemetry agents, period N
//                                    (cluster only; requires --nodes >= 2)
//     --telemetry-out=FILE|-         write the collector's JSONL rows
//     --openloop=RATE                open-loop service-fabric mode: RATE
//                                    arrivals per Mtick against the sharded
//                                    services (replaces --workload)
//     --arrival=poisson|bursty       open-loop arrival process (default poisson)
//     --services=SPEC                shards per service, e.g. name:4,file:8,counter:4
//     --shed-depth=N                 overload control: server queue-depth/deadline
//                                    shedding + client stale-drop (0 = off)
//
// With --nodes=1 (the default) the tool is exactly the single-machine
// simulator. --nodes=2+ instead boots N kernels over the simulated network
// and runs the cross-node RPC workload (node 0 clients, one echo server per
// other node) through netipc proxy ports; --workload is ignored there. The
// metrics JSON becomes {"nodes":[...]} — one registry object per node — and
// the trace merges every node's ring (Perfetto process per node).
//
// With --metrics-json=- the JSON is the only thing on stdout (the human
// summary moves to stderr), so pipelines can parse it directly. Exit code 0
// on success.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/ipc/ipc_space.h"
#include "src/machine/cycle_model.h"
#include "src/net/cluster.h"
#include "src/obs/collector.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/slo.h"
#include "src/obs/trace_export.h"
#include "src/obs/watchdog.h"
#include "src/svc/service.h"
#include "src/svc/shard_map.h"
#include "src/workload/openloop.h"
#include "src/workload/workload.h"

namespace {

using mkc::BlockReason;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload=compile|build|dos|farm|rpc] [--model=mk40|mk32|mach25]\n"
               "          [--scale=N] [--cpus=N] [--seed=N] [--quantum=N] [--pages=N]\n"
               "          [--no-handoff] [--no-recognition]\n"
               "          [--table] [--hist]\n"
               "          [--trace=N] [--trace-out=FILE] [--metrics-json=FILE|-]\n"
               "          [--profile=N] [--profile-out=FILE|-] [--flight=N]\n"
               "          [--flight-out=FILE|-] [--watchdog=N]\n"
               "          [--nodes=N] [--drop=RATE] [--reorder=RATE]\n"
               "          [--slo] [--slo-window=N] [--slo-subwindows=N]\n"
               "          [--slo-target-rpc=N] [--slo-target-fault=N] [--slo-target-exc=N]\n"
               "          [--slo-out=FILE|-]\n"
               "          [--tail-sample] [--no-tail-sample] [--tail-k=N] [--head-every=N]\n"
               "          [--telemetry=N] [--telemetry-out=FILE|-]\n"
               "          [--openloop=RATE] [--arrival=poisson|bursty]\n"
               "          [--services=SPEC] [--shed-depth=N]\n",
               argv0);
  return 2;
}

bool ParseU64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  std::uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

// Everything the tool needs from the kernel, captured by the post-run hook
// before the workload destroys it.
struct ObsCapture {
  bool want_trace = false;
  bool want_hist = false;
  std::string metrics_json;
  std::string trace_json;
  std::string hist_text;
  std::string cpu_text;
  std::string zone_text;
  std::string profile_folded;
  std::string flight_jsonl;
  std::string stall_report;
  std::string slo_jsonl;
  std::string slo_text;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_retained = 0;
  std::uint64_t trace_overwritten = 0;
};

// Cumulative per-kind SLO lines; only populated kinds print, and the block
// only exists when the tracker is armed, so the default summary stays
// byte-identical to pre-SLO builds.
std::string SloSummaryText(const mkc::SloTracker& slo) {
  std::string out;
  char line[256];
  for (int kind = 0; kind < mkc::SloTracker::kKinds; ++kind) {
    mkc::SloKindSnapshot s = slo.CumulativeKind(kind);
    if (s.count == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "slo %-11s ... n=%llu p50=%llu p99=%llu p99.9=%llu "
                  "violations=%llu (target %llu)\n",
                  mkc::SloTracker::KindName(kind),
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p99),
                  static_cast<unsigned long long>(s.p999),
                  static_cast<unsigned long long>(s.violations),
                  static_cast<unsigned long long>(slo.target(kind)));
    out += line;
  }
  return out;
}

void CaptureObservability(mkc::Kernel& kernel, void* arg) {
  auto* cap = static_cast<ObsCapture*>(arg);
  cap->metrics_json = kernel.metrics().DumpJsonString();
  if (cap->want_trace) {
    cap->trace_json = mkc::ChromeTraceString(kernel.trace());
  }
  if (kernel.ncpu() > 1) {
    // Per-CPU utilization and scheduler counters; only with --cpus > 1 so
    // the single-CPU summary stays byte-identical to older builds.
    mkc::Ticks vtime = kernel.VirtualTime();
    for (int i = 0; i < kernel.ncpu(); ++i) {
      const mkc::Processor& cpu = kernel.cpu(i);
      mkc::Ticks busy = cpu.clock.Now() > cpu.idle_ticks ? cpu.clock.Now() - cpu.idle_ticks : 0;
      double util = vtime > 0 ? 100.0 * static_cast<double>(busy) / static_cast<double>(vtime)
                              : 0.0;
      char line[192];
      std::snprintf(line, sizeof(line),
                    "cpu%d .............. %5.1f%% util (dequeues=%llu steals=%llu "
                    "stack-hits=%llu misses=%llu idle-yields=%llu)\n",
                    i, util, static_cast<unsigned long long>(cpu.local_dequeues),
                    static_cast<unsigned long long>(cpu.steals),
                    static_cast<unsigned long long>(cpu.stack_cache_hits),
                    static_cast<unsigned long long>(cpu.stack_cache_misses),
                    static_cast<unsigned long long>(cpu.idle_yields));
      cap->cpu_text += line;
    }
  }
  for (const mkc::Zone* zone :
       {&kernel.ipc().kmsg_small_zone(), &kernel.ipc().kmsg_full_zone()}) {
    const mkc::ZoneStats& zs = zone->stats();
    char line[192];
    std::snprintf(line, sizeof(line),
                  "zone %-10s ... in-use=%llu high-water=%llu created=%llu "
                  "magazine-hit-rate=%.1f%%\n",
                  zone->name().c_str(), static_cast<unsigned long long>(zs.in_use),
                  static_cast<unsigned long long>(zs.high_water),
                  static_cast<unsigned long long>(zs.created),
                  100.0 * zs.MagazineHitRate());
    cap->zone_text += line;
  }
  cap->trace_recorded = kernel.trace().recorded();
  cap->trace_retained = kernel.trace().retained();
  cap->trace_overwritten = kernel.trace().overwritten();
  if (kernel.profiler() != nullptr) {
    cap->profile_folded = kernel.profiler()->FoldedString();
    cap->flight_jsonl = kernel.profiler()->FlightJsonl();
  }
  if (kernel.watchdog() != nullptr) {
    // A final sweep so stalls younger than the last check interval — or runs
    // shorter than one — still make the end-of-run report.
    kernel.watchdog()->Scan(kernel);
    cap->stall_report = kernel.watchdog()->Report();
  }
  if (kernel.slo() != nullptr) {
    kernel.slo()->AdvanceTo(kernel.VirtualTime());
    cap->slo_jsonl = kernel.slo()->WindowJsonl();
    cap->slo_text = SloSummaryText(*kernel.slo());
  }
  if (cap->want_hist) {
    char line[256];
    std::snprintf(line, sizeof(line), "\n%-36s %10s %10s %10s %10s %10s %10s\n", "histogram",
                  "count", "p50", "p90", "p99", "p99.9", "max");
    cap->hist_text += line;
    kernel.metrics().ForEachHistogram([&](const std::string& name,
                                          const mkc::LatencyHistogram& h) {
      if (h.count() == 0) {
        return;
      }
      std::snprintf(line, sizeof(line), "%-36s %10llu %10llu %10llu %10llu %10llu %10llu\n",
                    name.c_str(), static_cast<unsigned long long>(h.count()),
                    static_cast<unsigned long long>(h.P50()),
                    static_cast<unsigned long long>(h.P90()),
                    static_cast<unsigned long long>(h.P99()),
                    static_cast<unsigned long long>(h.P999()),
                    static_cast<unsigned long long>(h.max()));
      cap->hist_text += line;
    });
  }
}

bool WriteFileOrStdout(const std::string& path, const std::string& contents) {
  if (path == "-") {
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "machcont_sim: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mkc::KernelConfig config;
  mkc::WorkloadParams params;
  params.scale = 5;
  mkc::WorkloadFn workload = &mkc::RunCompileWorkload;
  const char* workload_name = "compile";
  bool table = false;
  bool hist = false;
  bool trace_capacity_set = false;
  std::string trace_out;
  std::string metrics_json;
  std::string profile_out;
  std::string flight_out;
  int nodes = 1;
  std::uint32_t drop_per_mille = 0;
  std::uint32_t reorder_per_mille = 0;
  bool slo = false;
  bool no_tail_sample = false;
  std::string slo_out;
  std::string telemetry_out;
  mkc::Ticks telemetry_interval = 0;
  std::uint64_t openloop_rate = 0;
  bool openloop_bursty = false;
  mkc::ServiceSpec services;
  std::uint32_t shed_depth = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg]() { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--workload=", 0) == 0) {
      std::string w = value();
      if (w == "compile") {
        workload = &mkc::RunCompileWorkload;
      } else if (w == "build") {
        workload = &mkc::RunKernelBuildWorkload;
      } else if (w == "dos") {
        workload = &mkc::RunDosWorkload;
      } else if (w == "farm" || w == "rpc") {
        workload = &mkc::RunServerFarmWorkload;
      } else {
        return Usage(argv[0]);
      }
      workload_name = argv[i] + 11;
    } else if (arg.rfind("--model=", 0) == 0) {
      std::string m = value();
      if (m == "mk40") {
        config.model = mkc::ControlTransferModel::kMK40;
      } else if (m == "mk32") {
        config.model = mkc::ControlTransferModel::kMK32;
      } else if (m == "mach25") {
        config.model = mkc::ControlTransferModel::kMach25;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--scale=", 0) == 0) {
      params.scale = std::atoi(value().c_str());
      if (params.scale <= 0) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--cpus=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v < 1 ||
          v > static_cast<std::uint64_t>(mkc::kMaxCpus)) {
        return Usage(argv[0]);
      }
      config.ncpu = static_cast<int>(v);
    } else if (arg.rfind("--seed=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      params.seed = v;
    } else if (arg.rfind("--quantum=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      config.quantum = v;
    } else if (arg.rfind("--pages=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      config.physical_pages = static_cast<std::uint32_t>(v);
    } else if (arg.rfind("--trace=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      config.trace_capacity = static_cast<std::size_t>(v);
      trace_capacity_set = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = value();
      if (trace_out.empty()) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json = value();
      if (metrics_json.empty()) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--profile=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0) {
        return Usage(argv[0]);
      }
      config.profile_interval = v;
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      profile_out = value();
      if (profile_out.empty()) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--flight=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0) {
        return Usage(argv[0]);
      }
      config.flight_interval = v;
    } else if (arg.rfind("--flight-out=", 0) == 0) {
      flight_out = value();
      if (flight_out.empty()) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0) {
        return Usage(argv[0]);
      }
      config.watchdog_threshold = v;
    } else if (arg.rfind("--nodes=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v < 1 || v > 64) {
        return Usage(argv[0]);
      }
      nodes = static_cast<int>(v);
    } else if (arg.rfind("--drop=", 0) == 0) {
      std::string v = value();
      char* end = nullptr;
      double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || d < 0.0 || d >= 1.0) {
        return Usage(argv[0]);
      }
      drop_per_mille = static_cast<std::uint32_t>(d * 1000.0 + 0.5);
    } else if (arg.rfind("--reorder=", 0) == 0) {
      std::string v = value();
      char* end = nullptr;
      double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || d < 0.0 || d >= 1.0) {
        return Usage(argv[0]);
      }
      reorder_per_mille = static_cast<std::uint32_t>(d * 1000.0 + 0.5);
    } else if (arg == "--slo") {
      slo = true;
    } else if (arg.rfind("--slo-window=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0) {
        return Usage(argv[0]);
      }
      config.slo_window = v;
      slo = true;
    } else if (arg.rfind("--slo-subwindows=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0 || v > 64) {
        return Usage(argv[0]);
      }
      config.slo_subwindows = static_cast<int>(v);
    } else if (arg.rfind("--slo-target-rpc=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      config.slo_target_rpc = v;
    } else if (arg.rfind("--slo-target-fault=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      config.slo_target_fault = v;
    } else if (arg.rfind("--slo-target-exc=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      config.slo_target_exc = v;
    } else if (arg.rfind("--slo-out=", 0) == 0) {
      slo_out = value();
      if (slo_out.empty()) {
        return Usage(argv[0]);
      }
      slo = true;
    } else if (arg == "--tail-sample") {
      config.trace_tail_sample = true;
    } else if (arg == "--no-tail-sample") {
      no_tail_sample = true;
    } else if (arg.rfind("--tail-k=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      config.trace_tail_k = static_cast<int>(v);
      config.trace_tail_sample = true;
    } else if (arg.rfind("--head-every=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0) {
        return Usage(argv[0]);
      }
      config.trace_head_every = static_cast<std::uint32_t>(v);
      config.trace_tail_sample = true;
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0) {
        return Usage(argv[0]);
      }
      telemetry_interval = v;
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      telemetry_out = value();
      if (telemetry_out.empty()) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--openloop=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v) || v == 0) {
        return Usage(argv[0]);
      }
      openloop_rate = v;
    } else if (arg.rfind("--arrival=", 0) == 0) {
      std::string a = value();
      if (a == "poisson") {
        openloop_bursty = false;
      } else if (a == "bursty") {
        openloop_bursty = true;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--services=", 0) == 0) {
      if (!mkc::ParseServiceSpec(value().c_str(), &services)) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--shed-depth=", 0) == 0) {
      std::uint64_t v;
      if (!ParseU64(value().c_str(), &v)) {
        return Usage(argv[0]);
      }
      shed_depth = static_cast<std::uint32_t>(v);
    } else if (arg == "--no-handoff") {
      config.enable_handoff = false;
    } else if (arg == "--no-recognition") {
      config.enable_recognition = false;
    } else if (arg == "--table") {
      table = true;
    } else if (arg == "--hist") {
      hist = true;
    } else {
      return Usage(argv[0]);
    }
  }

  // --trace-out without --trace gets a generously sized default ring.
  if (!trace_out.empty() && !trace_capacity_set) {
    config.trace_capacity = 65536;
  }
  // Requesting an output file implies the recorder that produces it.
  if (!profile_out.empty() && config.profile_interval == 0) {
    config.profile_interval = 5000;
  }
  if (!flight_out.empty() && config.flight_interval == 0) {
    config.flight_interval = 50000;
  }
  // --slo with no explicit window gets the default sliding window; arming
  // SLO alongside a trace ring turns on tail sampling so long traces stay
  // bounded (--no-tail-sample opts back into the raw ring).
  if (slo && config.slo_window == 0) {
    config.slo_window = 200000;
  }
  slo = config.slo_window > 0;
  if (slo && config.trace_capacity > 0) {
    config.trace_tail_sample = true;
  }
  if (no_tail_sample) {
    config.trace_tail_sample = false;
  }
  if (!telemetry_out.empty() && telemetry_interval == 0) {
    telemetry_interval = 100000;
  }
  if (telemetry_interval > 0 && nodes < 2) {
    std::fprintf(stderr, "machcont_sim: --telemetry requires --nodes >= 2\n");
    return Usage(argv[0]);
  }

  if (openloop_rate > 0) {
    // Open-loop service-fabric mode: seeded arrivals against the sharded
    // services, single kernel or cluster. Everything printed here is a pure
    // function of (config, seed) — no wall-clock line — so the CI
    // determinism smoke can compare whole outputs byte for byte.
    config.seed = params.seed;
    mkc::OpenLoopParams op;
    op.rate = openloop_rate;
    op.bursty = openloop_bursty;
    op.services = services;
    op.shed_depth = shed_depth;
    op.seed = params.seed;
    op.total_arrivals = static_cast<std::uint64_t>(500) * params.scale;
    if (config.slo_window > 0) {
      op.slo_window = config.slo_window;
    }

    std::FILE* human = metrics_json == "-" ? stderr : stdout;
    std::unique_ptr<mkc::Cluster> cluster;
    std::unique_ptr<mkc::Kernel> kernel;
    std::unique_ptr<mkc::OpenLoopEngine> engine;
    std::unique_ptr<mkc::TelemetryPlane> telemetry;
    if (nodes > 1) {
      mkc::LinkConfig link;
      link.drop_per_mille = drop_per_mille;
      link.reorder_per_mille = reorder_per_mille;
      cluster = std::make_unique<mkc::Cluster>(config, nodes, link);
      engine = std::make_unique<mkc::OpenLoopEngine>(*cluster, op);
      if (telemetry_interval > 0) {
        mkc::TelemetryConfig tc;
        tc.interval = telemetry_interval;
        telemetry = std::make_unique<mkc::TelemetryPlane>(*cluster, tc);
        for (int i = 0; i < nodes; ++i) {
          telemetry->AttachSvc(i, engine->node_stats(i),
                               i == 0 ? engine->backlog_gauge() : nullptr);
        }
      }
      cluster->Run();
      if (telemetry != nullptr) {
        telemetry->Stop();
      }
      cluster->Drain();
    } else {
      kernel = std::make_unique<mkc::Kernel>(config);
      engine = std::make_unique<mkc::OpenLoopEngine>(*kernel, op);
      kernel->Run();
    }
    mkc::OpenLoopReport rep = engine->Finish();
    mkc::SvcNodeStats svc = engine->TotalSvcStats();

    std::fprintf(human,
                 "openloop on %s, nodes %d, rate %llu/Mtick, %s arrivals, "
                 "services name:%d,file:%d,counter:%d, shed-depth %u, seed %llu\n",
                 mkc::ModelName(config.model), nodes,
                 static_cast<unsigned long long>(openloop_rate),
                 openloop_bursty ? "bursty" : "poisson", services.shards[0],
                 services.shards[1], services.shards[2], shed_depth,
                 static_cast<unsigned long long>(params.seed));
    std::fprintf(human,
                 "summary: arrivals=%llu completed=%llu goodput=%llu shed=%llu "
                 "retries=%llu failed=%llu stream=%016llx vtime=%llu\n",
                 static_cast<unsigned long long>(rep.arrivals_total),
                 static_cast<unsigned long long>(rep.completed_total),
                 static_cast<unsigned long long>(rep.deadline_met_total),
                 static_cast<unsigned long long>(rep.shed_total),
                 static_cast<unsigned long long>(rep.retries_total),
                 static_cast<unsigned long long>(rep.failed_total),
                 static_cast<unsigned long long>(rep.stream_hash),
                 static_cast<unsigned long long>(rep.virtual_time));
    std::fprintf(human, "services .......... admitted=%llu shed=%llu retried=%llu\n",
                 static_cast<unsigned long long>(svc.admitted_total),
                 static_cast<unsigned long long>(rep.shed_total),
                 static_cast<unsigned long long>(rep.retries_total));
    for (int k = 0; k < mkc::kServiceKindCount; ++k) {
      const mkc::OpenLoopKindReport& kr = rep.kind[k];
      if (kr.arrivals == 0) {
        continue;
      }
      const std::uint64_t kshed = svc.kind[k].shed_queue +
                                  svc.kind[k].shed_deadline + kr.client_shed;
      std::fprintf(human,
                   "svc %-11s ... arrivals=%llu admitted=%llu shed=%llu "
                   "retried=%llu goodput=%llu p50=%llu p99=%llu p99.9=%llu\n",
                   mkc::ServiceKindName(k),
                   static_cast<unsigned long long>(kr.arrivals),
                   static_cast<unsigned long long>(svc.kind[k].admitted),
                   static_cast<unsigned long long>(kshed),
                   static_cast<unsigned long long>(kr.retries),
                   static_cast<unsigned long long>(kr.deadline_met),
                   static_cast<unsigned long long>(rep.latency[k].p50),
                   static_cast<unsigned long long>(rep.latency[k].p99),
                   static_cast<unsigned long long>(rep.latency[k].p999));
    }
    if (cluster != nullptr) {
      for (int i = 0; i < nodes; ++i) {
        const mkc::NetStats& ns = cluster->netipc(i).stats();
        std::fprintf(human,
                     "node %d net ........ proxy-ports=%llu rx-ooo-buffered=%llu "
                     "rx-ooo-hw=%llu\n",
                     i, static_cast<unsigned long long>(ns.proxy_table),
                     static_cast<unsigned long long>(ns.rx_ooo_buffered),
                     static_cast<unsigned long long>(ns.rx_ooo_hw));
      }
      if (telemetry != nullptr) {
        std::fprintf(human, "\n%s",
                     mkc::FormatTelemetryTable(telemetry->Rows()).c_str());
      }
    }

    bool ol_ok = true;
    if (!metrics_json.empty()) {
      std::string out_json;
      if (cluster != nullptr) {
        out_json = "{\"nodes\":[\n";
        for (int i = 0; i < nodes; ++i) {
          if (i > 0) {
            out_json += ",\n";
          }
          out_json += cluster->node(i).metrics().DumpJsonString();
        }
        out_json += "\n],\"svc_slo\":";
        out_json += engine->svc_slo().JsonBlock(rep.virtual_time);
        out_json += "}\n";
      } else {
        kernel->metrics().SetJsonBlock("svc_slo", [&engine, &rep] {
          return engine->svc_slo().JsonBlock(rep.virtual_time);
        });
        out_json = kernel->metrics().DumpJsonString();
      }
      ol_ok = WriteFileOrStdout(metrics_json, out_json) && ol_ok;
    }
    if (!telemetry_out.empty() && telemetry != nullptr) {
      ol_ok = WriteFileOrStdout(telemetry_out, telemetry->Rows()) && ol_ok;
    }
    return ol_ok ? 0 : 1;
  }

  if (nodes > 1) {
    // Multi-machine mode: the canonical cross-node RPC workload over netipc.
    config.seed = params.seed;
    mkc::LinkConfig link;
    link.drop_per_mille = drop_per_mille;
    link.reorder_per_mille = reorder_per_mille;
    mkc::Cluster cluster(config, nodes, link);
    mkc::ClusterRpcParams cp;
    cp.scale = params.scale;
    std::unique_ptr<mkc::TelemetryPlane> telemetry;
    if (telemetry_interval > 0) {
      mkc::TelemetryConfig tc;
      tc.interval = telemetry_interval;
      telemetry = std::make_unique<mkc::TelemetryPlane>(cluster, tc);
      cp.pre_drain = &mkc::TelemetryPlane::PreDrainHook;
      cp.pre_drain_arg = telemetry.get();
    }
    mkc::ClusterReport r = mkc::RunClusterRpcWorkload(cluster, cp);

    std::FILE* human = metrics_json == "-" ? stderr : stdout;
    std::fprintf(human, "cluster netipc on %s, nodes %d, scale %d, seed %llu, drop %u/1000",
                 mkc::ModelName(config.model), nodes, params.scale,
                 static_cast<unsigned long long>(params.seed), drop_per_mille);
    if (reorder_per_mille > 0) {
      std::fprintf(human, ", reorder %u/1000", reorder_per_mille);
    }
    std::fprintf(human, "\n");
    std::fprintf(human,
                 "summary: rpcs=%llu failed=%llu retransmits=%llu giveups=%llu "
                 "msgs=%llu vtime=%llu\n",
                 static_cast<unsigned long long>(r.rpcs_ok),
                 static_cast<unsigned long long>(r.rpcs_failed),
                 static_cast<unsigned long long>(r.net.retransmits),
                 static_cast<unsigned long long>(r.net.give_ups),
                 static_cast<unsigned long long>(r.net.msgs_in),
                 static_cast<unsigned long long>(r.virtual_time));
    std::fprintf(human, "virtual time ...... %llu ticks (%.2f simulated ms)\n",
                 static_cast<unsigned long long>(r.virtual_time),
                 mkc::CyclesToMicros(r.virtual_time) / 1000.0);
    std::fprintf(human, "wall time ......... %.3f ms\n", r.wall_seconds * 1000.0);
    std::fprintf(human,
                 "net ............... tx=%llu rx=%llu pkts (%llu bytes, drops=%llu "
                 "dups=%llu queue-full=%llu)\n",
                 static_cast<unsigned long long>(r.net.packets_tx),
                 static_cast<unsigned long long>(r.net.packets_rx),
                 static_cast<unsigned long long>(r.net.bytes_tx),
                 static_cast<unsigned long long>(r.net.drops),
                 static_cast<unsigned long long>(r.net.dups),
                 static_cast<unsigned long long>(r.net.queue_full));
    std::fprintf(human,
                 "protocol .......... acks=%llu dead=%llu dup-data=%llu backpressure=%llu\n",
                 static_cast<unsigned long long>(r.net.acks_rx),
                 static_cast<unsigned long long>(r.net.dead_rx),
                 static_cast<unsigned long long>(r.net.rx_dup_data),
                 static_cast<unsigned long long>(r.net.rx_backpressure));
    std::fprintf(human, "proxies ........... live=%llu gc=%llu\n",
                 static_cast<unsigned long long>(r.net.proxy_table),
                 static_cast<unsigned long long>(r.net.proxy_gcs));
    for (int i = 0; i < nodes; ++i) {
      const mkc::NetStats& ns = cluster.netipc(i).stats();
      std::fprintf(human,
                   "node %d net ........ proxy-ports=%llu rx-ooo-buffered=%llu "
                   "rx-ooo-hw=%llu\n",
                   i, static_cast<unsigned long long>(ns.proxy_table),
                   static_cast<unsigned long long>(ns.rx_ooo_buffered),
                   static_cast<unsigned long long>(ns.rx_ooo_hw));
    }
    const double goodput_ratio =
        r.net.bytes_tx > 0
            ? static_cast<double>(r.net.bytes_goodput) /
                  static_cast<double>(r.net.bytes_tx)
            : 0.0;
    std::fprintf(human,
                 "protocol v2 ....... piggybacked=%llu coalesced=%llu "
                 "fast-retx=%llu ooo-buffered=%llu goodput/raw=%.3f\n",
                 static_cast<unsigned long long>(r.net.acks_piggybacked),
                 static_cast<unsigned long long>(r.net.frames_coalesced),
                 static_cast<unsigned long long>(r.net.fast_retransmits),
                 static_cast<unsigned long long>(r.net.rx_ooo_buffered),
                 goodput_ratio);
    if (r.net.ool_pulls > 0 || r.net.ool_pull_fails > 0) {
      std::fprintf(human,
                   "ool ............... pulls=%llu pushes=%llu bytes=%llu fails=%llu\n",
                   static_cast<unsigned long long>(r.net.ool_pulls),
                   static_cast<unsigned long long>(r.net.ool_pushes),
                   static_cast<unsigned long long>(r.net.ool_bytes_pulled),
                   static_cast<unsigned long long>(r.net.ool_pull_fails));
    }

    for (int i = 0; i < nodes; ++i) {
      mkc::Kernel& node = cluster.node(i);
      if (node.watchdog() != nullptr) {
        node.watchdog()->Scan(node);
        std::string report = node.watchdog()->Report();
        if (!report.empty()) {
          std::fprintf(human, "node %d %s", i, report.c_str());
        }
      }
    }
    for (int i = 0; i < nodes; ++i) {
      mkc::Kernel& node = cluster.node(i);
      if (node.slo() != nullptr) {
        node.slo()->AdvanceTo(node.VirtualTime());
        std::string text = SloSummaryText(*node.slo());
        if (!text.empty()) {
          std::fprintf(human, "node %d %s", i, text.c_str());
        }
      }
    }
    if (telemetry != nullptr) {
      std::fprintf(human, "\n%s", mkc::FormatTelemetryTable(telemetry->Rows()).c_str());
    }

    bool cluster_ok = true;
    if (!profile_out.empty()) {
      // One folded profile for the whole cluster: every node's stacks,
      // rooted under its node id, in node order (deterministic).
      std::string merged;
      for (int i = 0; i < nodes; ++i) {
        if (cluster.node(i).profiler() != nullptr) {
          merged += cluster.node(i).profiler()->FoldedString("node" + std::to_string(i) + ";");
        }
      }
      cluster_ok = WriteFileOrStdout(profile_out, merged) && cluster_ok;
    }
    if (!flight_out.empty()) {
      std::string merged;
      for (int i = 0; i < nodes; ++i) {
        if (cluster.node(i).profiler() != nullptr) {
          merged += cluster.node(i).profiler()->FlightJsonl();
        }
      }
      cluster_ok = WriteFileOrStdout(flight_out, merged) && cluster_ok;
    }
    if (!metrics_json.empty()) {
      std::string merged = "{\"nodes\":[\n";
      for (int i = 0; i < nodes; ++i) {
        if (i > 0) {
          merged += ",\n";
        }
        merged += cluster.node(i).metrics().DumpJsonString();
      }
      merged += "\n]";
      // Cluster-merged SLO view alongside the per-node registries. Only
      // emitted when --slo armed the trackers, so the plain cluster JSON
      // shape is unchanged.
      std::vector<const mkc::SloTracker*> trackers;
      for (int i = 0; i < nodes; ++i) {
        if (cluster.node(i).slo() != nullptr) {
          trackers.push_back(cluster.node(i).slo());
        }
      }
      if (!trackers.empty()) {
        merged += ",\"slo\":";
        merged += mkc::SloTracker::MergedJsonBlock(trackers);
      }
      merged += "}\n";
      cluster_ok = WriteFileOrStdout(metrics_json, merged) && cluster_ok;
    }
    if (!slo_out.empty()) {
      // Per-window JSONL from every node, in node order; each line carries
      // its node id.
      std::string windows;
      for (int i = 0; i < nodes; ++i) {
        if (cluster.node(i).slo() != nullptr) {
          windows += cluster.node(i).slo()->WindowJsonl();
        }
      }
      cluster_ok = WriteFileOrStdout(slo_out, windows) && cluster_ok;
    }
    if (!telemetry_out.empty() && telemetry != nullptr) {
      cluster_ok = WriteFileOrStdout(telemetry_out, telemetry->Rows()) && cluster_ok;
    }
    if (!trace_out.empty()) {
      std::vector<const mkc::TraceBuffer*> traces;
      for (int i = 0; i < nodes; ++i) {
        traces.push_back(&cluster.node(i).trace());
      }
      cluster_ok = WriteFileOrStdout(trace_out, mkc::ClusterChromeTraceString(traces)) &&
                   cluster_ok;
    }
    return cluster_ok ? 0 : 1;
  }

  ObsCapture cap;
  cap.want_trace = !trace_out.empty();
  cap.want_hist = hist;
  params.post_run = &CaptureObservability;
  params.post_run_arg = &cap;

  mkc::WorkloadReport r = workload(config, params);

  // When the metrics JSON goes to stdout, keep stdout pure JSON.
  std::FILE* human = metrics_json == "-" ? stderr : stdout;

  std::fprintf(human, "workload %s on %s, scale %d, seed %llu\n", workload_name,
               mkc::ModelName(r.model), params.scale,
               static_cast<unsigned long long>(params.seed));
  // One-line machine-grepable summary, always printed.
  std::fprintf(human,
               "summary: blocks=%llu discards=%llu handoffs=%llu recognitions=%llu "
               "msgs=%llu faults=%llu exceptions=%llu vtime=%llu\n",
               static_cast<unsigned long long>(r.transfer.total_blocks),
               static_cast<unsigned long long>(r.transfer.TotalDiscards()),
               static_cast<unsigned long long>(r.transfer.stack_handoffs),
               static_cast<unsigned long long>(r.transfer.recognitions),
               static_cast<unsigned long long>(r.ipc.messages_sent),
               static_cast<unsigned long long>(r.vm.user_faults),
               static_cast<unsigned long long>(r.exc.raised),
               static_cast<unsigned long long>(r.virtual_time));
  std::fprintf(human, "virtual time ...... %llu ticks (%.2f simulated ms)\n",
               static_cast<unsigned long long>(r.virtual_time),
               mkc::CyclesToMicros(r.virtual_time) / 1000.0);
  std::fprintf(human, "wall time ......... %.3f ms\n", r.wall_seconds * 1000.0);
  std::fprintf(human,
               "blocks ............ %llu (%llu discards, %llu handoffs, %llu recognitions)\n",
               static_cast<unsigned long long>(r.transfer.total_blocks),
               static_cast<unsigned long long>(r.transfer.TotalDiscards()),
               static_cast<unsigned long long>(r.transfer.stack_handoffs),
               static_cast<unsigned long long>(r.transfer.recognitions));
  std::fprintf(human, "kernel stacks ..... avg %.3f in use, max %llu (cache max %llu)\n",
               r.stacks.AverageInUse(), static_cast<unsigned long long>(r.stacks.max_in_use),
               static_cast<unsigned long long>(r.stacks.max_cached));
  std::fprintf(human, "ipc ............... %llu msgs (%llu fast-path, %llu queued)\n",
               static_cast<unsigned long long>(r.ipc.messages_sent),
               static_cast<unsigned long long>(r.ipc.fast_rpc_handoffs),
               static_cast<unsigned long long>(r.ipc.queued_sends));
  std::fputs(cap.zone_text.c_str(), human);
  std::fprintf(human, "vm ................ %llu faults (%llu pageins, %llu pageouts)\n",
               static_cast<unsigned long long>(r.vm.user_faults),
               static_cast<unsigned long long>(r.vm.pageins),
               static_cast<unsigned long long>(r.vm.pageouts));
  std::fprintf(human, "exceptions ........ %llu raised (%llu fast deliveries)\n",
               static_cast<unsigned long long>(r.exc.raised),
               static_cast<unsigned long long>(r.exc.fast_deliveries));
  std::fputs(cap.cpu_text.c_str(), human);
  if (config.trace_capacity > 0) {
    std::fprintf(human, "trace ............. recorded=%llu retained=%llu overwritten=%llu\n",
                 static_cast<unsigned long long>(cap.trace_recorded),
                 static_cast<unsigned long long>(cap.trace_retained),
                 static_cast<unsigned long long>(cap.trace_overwritten));
    if (cap.trace_overwritten > 0) {
      std::fprintf(stderr,
                   "machcont_sim: warning: trace ring overflowed; %llu oldest records "
                   "dropped (raise --trace=N)\n",
                   static_cast<unsigned long long>(cap.trace_overwritten));
    }
  }

  if (table) {
    std::fprintf(human, "\n%-20s %12s %12s %8s\n", "block reason", "blocks", "discards", "%");
    for (int i = 0; i < static_cast<int>(BlockReason::kCount); ++i) {
      const auto& row = r.transfer.by_reason[i];
      if (row.blocks == 0) {
        continue;
      }
      std::fprintf(human, "%-20s %12llu %12llu %7.1f%%\n",
                   mkc::BlockReasonName(static_cast<BlockReason>(i)),
                   static_cast<unsigned long long>(row.blocks),
                   static_cast<unsigned long long>(row.discards),
                   100.0 * static_cast<double>(row.blocks) /
                       static_cast<double>(r.transfer.total_blocks));
    }
  }

  if (hist) {
    std::fputs(cap.hist_text.c_str(), human);
  }

  if (!cap.slo_text.empty()) {
    std::fputs(cap.slo_text.c_str(), human);
  }

  if (!cap.stall_report.empty()) {
    std::fputs(cap.stall_report.c_str(), human);
  }

  bool ok = true;
  if (!metrics_json.empty()) {
    ok = WriteFileOrStdout(metrics_json, cap.metrics_json) && ok;
  }
  if (!trace_out.empty()) {
    ok = WriteFileOrStdout(trace_out, cap.trace_json) && ok;
  }
  if (!profile_out.empty()) {
    ok = WriteFileOrStdout(profile_out, cap.profile_folded) && ok;
  }
  if (!flight_out.empty()) {
    ok = WriteFileOrStdout(flight_out, cap.flight_jsonl) && ok;
  }
  if (!slo_out.empty()) {
    ok = WriteFileOrStdout(slo_out, cap.slo_jsonl) && ok;
  }
  return ok ? 0 : 1;
}
