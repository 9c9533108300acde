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
//     --table                        print the Table 1 style block breakdown
//     --hist                         print the latency histogram summary
//     --report                       print the per-continuation recognition
//                                    table (Table 2 per site; implies --profile)
//     --trace=N                      trace ring capacity (0 disables)
//     --trace-out=FILE|-             write Chrome trace-event JSON (Perfetto)
//     --metrics-json=FILE|-          write the metrics registry as JSON
//     --profile=N                    virtual-cycle sampling profiler, period N
//     --profile-out=FILE|-           write the folded-stack profile
//     --snapshot=N                   per-node snapshot period N (default: the
//                                    SLO window with --slo, else 50000)
//     --snapshot-out=FILE|-          write the snapshot rows (JSONL)
//     --watchdog=N                   stall watchdog threshold N ticks
//     --nodes=N                      simulated machines     (default 1)
//     --drop=RATE                    network drop probability [0,1)
//     --reorder=RATE                 network reorder probability [0,1)
//     --slo                          arm the windowed SLO tracker (8 sub-windows;
//                                    targets rpc 25000, fault/exc 12000 ticks)
//     --slo-window=N                 SLO sliding window width (implies --slo)
//                                    (--slo with --trace tail-samples the trace
//                                    ring: 8 slowest spans per kind plus a
//                                    1-in-64 head sample)
//     --telemetry                    ship the snapshots in-band to a node-0
//                                    collector, whose rows --snapshot-out then
//                                    writes (requires --nodes >= 2)
//     --openloop=RATE                open-loop service-fabric mode: RATE
//                                    arrivals per Mtick against the sharded
//                                    services (replaces --workload)
//     --arrival=poisson|bursty       open-loop arrival process (default poisson)
//     --services=SPEC                shards per service, e.g. name:4,file:8,counter:4
//     --shed-depth=N                 overload control: server queue-depth/deadline
//                                    shedding + client stale-drop (0 = off)
//
// Three run modes share one output stage. With --nodes=1 (the default) the
// tool runs --workload on one kernel. --nodes=2+ instead boots N kernels
// over the simulated network and runs the cross-node RPC workload (node 0
// clients, one echo server per other node) through netipc proxy ports;
// --workload is ignored there. --openloop drives the sharded services on one
// kernel or N. Every output flag works in every mode. On a cluster the
// metrics JSON becomes {"nodes":[...]} — one registry object per node — the
// trace merges every node's ring (Perfetto process per node), the profile
// roots each node's stacks under a "nodeN" frame, and each text report is
// printed per node under a "node N" prefix.
//
// An output set to "-" is the only thing on stdout (the human summary moves
// to stderr), so pipelines can parse it directly; at most one output may be
// "-". Exit code 0 on success, 1 when an output cannot be written, 2 on a
// usage error.
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/ipc/ipc_space.h"
#include "src/machine/cycle_model.h"
#include "src/net/cluster.h"
#include "src/net/netipc.h"
#include "src/obs/collector.h"
#include "src/obs/introspect.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/slo.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace_export.h"
#include "src/obs/watchdog.h"
#include "src/svc/service.h"
#include "src/svc/shard_map.h"
#include "src/workload/openloop.h"
#include "src/workload/workload.h"

namespace {

using mkc::BlockReason;
using mkc::Kernel;
using ull = unsigned long long;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload=compile|build|dos|farm|rpc] [--model=mk40|mk32|mach25]\n"
               "          [--scale=N] [--cpus=N] [--seed=N] [--quantum=N] [--pages=N]\n"
               "          [--no-handoff] [--no-recognition]\n"
               "          [--table] [--hist] [--report]\n"
               "          [--trace=N] [--trace-out=FILE|-] [--metrics-json=FILE|-]\n"
               "          [--profile=N] [--profile-out=FILE|-] [--watchdog=N]\n"
               "          [--snapshot=N] [--snapshot-out=FILE|-] [--telemetry]\n"
               "          [--nodes=N] [--drop=RATE] [--reorder=RATE]\n"
               "          [--slo] [--slo-window=N]\n"
               "          [--openloop=RATE] [--arrival=poisson|bursty]\n"
               "          [--services=SPEC] [--shed-depth=N]\n",
               argv0);
  return 2;
}

enum class Mode { kWorkload, kCluster, kOpenLoop };

// The files a run can write, indexed by their flags below.
enum Output { kMetrics, kTrace, kProfile, kSnapshot, kOutputs };
const char* const kOutputFlags[kOutputs] = {"--metrics-json=", "--trace-out=", "--profile-out=",
                                            "--snapshot-out="};

// One command line: the kernel configuration, the run mode and its
// parameters, and what to report.
struct Scenario {
  mkc::KernelConfig config;
  mkc::WorkloadParams params;
  mkc::WorkloadFn workload = &mkc::RunCompileWorkload;
  const char* workload_name = "compile";
  Mode mode = Mode::kWorkload;
  int nodes = 1;
  mkc::LinkConfig link;
  bool telemetry = false;
  mkc::OpenLoopParams openloop;
  bool table = false;
  bool hist = false;
  bool report = false;
  std::string out[kOutputs];  // Output paths; empty = not requested.
  std::FILE* human = stdout;   // stderr once an output takes stdout.
};

void Appendf(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void Appendf(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  const std::size_t old = out->size();
  out->resize(old + static_cast<std::size_t>(n) + 1);
  std::vsnprintf(out->data() + old, static_cast<std::size_t>(n) + 1, fmt, again);
  va_end(again);
  out->resize(old + static_cast<std::size_t>(n));
}

// Matches "--flag=N": parses N into *out, or sets *bad when it is not a
// number in [lo, hi].
bool UintFlag(const std::string& arg, const char* flag, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t* out, bool* bad) {
  if (arg.rfind(flag, 0) != 0) {
    return false;
  }
  const char* s = arg.c_str() + std::strlen(flag);
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  *bad = end == s || *end != '\0' || *out < lo || *out > hi;
  return true;
}

// Matches "--flag=RATE" with RATE a probability in [0,1), parsed per mille.
bool RateFlag(const std::string& arg, const char* flag, std::uint32_t* per_mille, bool* bad) {
  if (arg.rfind(flag, 0) != 0) {
    return false;
  }
  const char* s = arg.c_str() + std::strlen(flag);
  char* end = nullptr;
  const double d = std::strtod(s, &end);
  *bad = end == s || *end != '\0' || d < 0.0 || d >= 1.0;
  *per_mille = static_cast<std::uint32_t>(d * 1000.0 + 0.5);
  return true;
}

bool OutputFlag(const std::string& arg, Scenario* sc, bool* bad) {
  for (int o = 0; o < kOutputs; ++o) {
    if (arg.rfind(kOutputFlags[o], 0) == 0) {
      sc->out[o] = arg.substr(std::strlen(kOutputFlags[o]));
      *bad = sc->out[o].empty();
      return true;
    }
  }
  return false;
}

bool Parse(int argc, char** argv, Scenario* sc) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  mkc::KernelConfig& config = sc->config;
  sc->params.scale = 5;
  bool trace_capacity_set = false;
  bool slo = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string value = arg.substr(arg.find('=') + 1);
    std::uint64_t v = 0;
    std::uint32_t rate = 0;
    bool bad = false;
    if (arg.rfind("--workload=", 0) == 0) {
      if (value == "compile") {
        sc->workload = &mkc::RunCompileWorkload;
      } else if (value == "build") {
        sc->workload = &mkc::RunKernelBuildWorkload;
      } else if (value == "dos") {
        sc->workload = &mkc::RunDosWorkload;
      } else if (value == "farm" || value == "rpc") {
        sc->workload = &mkc::RunServerFarmWorkload;
      } else {
        return false;
      }
      sc->workload_name = argv[i] + 11;
    } else if (arg.rfind("--model=", 0) == 0) {
      if (value == "mk40") {
        config.model = mkc::ControlTransferModel::kMK40;
      } else if (value == "mk32") {
        config.model = mkc::ControlTransferModel::kMK32;
      } else if (value == "mach25") {
        config.model = mkc::ControlTransferModel::kMach25;
      } else {
        return false;
      }
    } else if (UintFlag(arg, "--scale=", 1, std::numeric_limits<int>::max(), &v, &bad)) {
      sc->params.scale = static_cast<int>(v);
    } else if (UintFlag(arg, "--cpus=", 1, mkc::kMaxCpus, &v, &bad)) {
      config.ncpu = static_cast<int>(v);
    } else if (UintFlag(arg, "--seed=", 0, kU64Max, &v, &bad)) {
      sc->params.seed = v;
    } else if (UintFlag(arg, "--quantum=", 0, kU64Max, &v, &bad)) {
      config.quantum = v;
    } else if (UintFlag(arg, "--pages=", 0, kU32Max, &v, &bad)) {
      config.physical_pages = static_cast<std::uint32_t>(v);
    } else if (UintFlag(arg, "--trace=", 0, kU64Max, &v, &bad)) {
      config.trace_capacity = static_cast<std::size_t>(v);
      trace_capacity_set = true;
    } else if (UintFlag(arg, "--profile=", 1, kU64Max, &v, &bad)) {
      config.profile_interval = v;
    } else if (UintFlag(arg, "--snapshot=", 1, kU64Max, &v, &bad)) {
      config.snapshot_interval = v;
    } else if (UintFlag(arg, "--watchdog=", 1, kU64Max, &v, &bad)) {
      config.watchdog_threshold = v;
    } else if (UintFlag(arg, "--nodes=", 1, 64, &v, &bad)) {
      sc->nodes = static_cast<int>(v);
    } else if (RateFlag(arg, "--drop=", &rate, &bad)) {
      sc->link.drop_per_mille = rate;
    } else if (RateFlag(arg, "--reorder=", &rate, &bad)) {
      sc->link.reorder_per_mille = rate;
    } else if (arg == "--slo") {
      slo = true;
    } else if (UintFlag(arg, "--slo-window=", 1, kU64Max, &v, &bad)) {
      config.slo_window = v;
    } else if (arg == "--telemetry") {
      sc->telemetry = true;
    } else if (UintFlag(arg, "--openloop=", 1, kU64Max, &v, &bad)) {
      sc->openloop.rate = v;
      sc->mode = Mode::kOpenLoop;
    } else if (arg.rfind("--arrival=", 0) == 0) {
      if (value != "poisson" && value != "bursty") {
        return false;
      }
      sc->openloop.bursty = value == "bursty";
    } else if (arg.rfind("--services=", 0) == 0) {
      bad = !mkc::ParseServiceSpec(value.c_str(), &sc->openloop.services);
    } else if (UintFlag(arg, "--shed-depth=", 0, kU32Max, &v, &bad)) {
      sc->openloop.shed_depth = static_cast<std::uint32_t>(v);
    } else if (arg == "--no-handoff") {
      config.enable_handoff = false;
    } else if (arg == "--no-recognition") {
      config.enable_recognition = false;
    } else if (arg == "--table") {
      sc->table = true;
    } else if (arg == "--hist") {
      sc->hist = true;
    } else if (arg == "--report") {
      sc->report = true;
    } else if (!OutputFlag(arg, sc, &bad)) {
      return false;
    }
    if (bad) {
      return false;
    }
  }

  // Requesting an output implies the recorder that produces it; --trace-out
  // without --trace gets a generously sized default ring.
  if (!sc->out[kTrace].empty() && !trace_capacity_set) {
    config.trace_capacity = 65536;
  }
  if ((!sc->out[kProfile].empty() || sc->report) && config.profile_interval == 0) {
    config.profile_interval = 5000;
  }
  // --slo with no explicit window gets the default sliding window.
  if (slo && config.slo_window == 0) {
    config.slo_window = 200000;
  }
  // Snapshots default to one per SLO window, so each row's SLO section is
  // one completed window.
  if ((!sc->out[kSnapshot].empty() || sc->telemetry) && config.snapshot_interval == 0) {
    config.snapshot_interval = config.slo_window > 0 ? config.slo_window : 50000;
  }
  if (sc->telemetry && sc->nodes < 2) {
    std::fprintf(stderr, "machcont_sim: --telemetry requires --nodes >= 2\n");
    return false;
  }
  for (const std::string& path : sc->out) {
    if (path == "-" && sc->human == stderr) {
      std::fprintf(stderr, "machcont_sim: at most one output may be -\n");
      return false;
    }
    sc->human = path == "-" ? stderr : sc->human;
  }
  if (sc->mode == Mode::kWorkload && sc->nodes > 1) {
    sc->mode = Mode::kCluster;
  }
  if (sc->mode != Mode::kWorkload) {
    config.seed = sc->params.seed;
  }
  return true;
}

// Cumulative per-kind SLO lines; only populated kinds print, and the block
// only exists when the tracker is armed, so the default summary stays
// byte-identical to pre-SLO builds.
std::string SloSummaryText(const mkc::SloTracker& slo) {
  std::string out;
  for (int kind = 0; kind < mkc::SloTracker::kKinds; ++kind) {
    mkc::SloKindSnapshot s = slo.CumulativeKind(kind);
    if (s.count == 0) {
      continue;
    }
    Appendf(&out,
            "slo %-11s ... n=%llu p50=%llu p99=%llu p99.9=%llu violations=%llu (target %llu)\n",
            mkc::SloTracker::KindName(kind), static_cast<ull>(s.count),
            static_cast<ull>(s.p50), static_cast<ull>(s.p99), static_cast<ull>(s.p999),
            static_cast<ull>(s.violations), static_cast<ull>(slo.target(kind)));
  }
  return out;
}

// Everything the output stage takes from the node kernels, rendered while
// they are still alive.
struct Rendered {
  std::string net;       // Per-node net lines (clusters).
  std::string warnings;  // Trace-ring overflow warnings (always stderr).
  std::string reports;   // --table, --hist, --report, SLO and watchdog text.
  std::string files[kOutputs];
};

// The output stage, kernel side: one kernel in workload mode (called from
// the post-run hook), N for clusters. `block`, when set, adds a mode-owned
// JSON block named `block_name` to the metrics output: inside the registry
// on one kernel, beside the per-node registries on a cluster.
void Render(const Scenario& sc, const std::vector<Kernel*>& nodes, const char* block_name,
            const std::function<std::string()>& block, Rendered* out) {
  const bool cluster = nodes.size() > 1;
  std::vector<std::string> label(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Kernel& k = *nodes[i];
    label[i] = cluster ? "node " + std::to_string(i) + " " : "";
    if (k.watchdog() != nullptr) {
      // A final sweep so stalls younger than the last check interval — or
      // runs shorter than one — still make the end-of-run report.
      k.watchdog()->Scan(k);
    }
    if (k.snapshots() != nullptr) {
      k.snapshots()->Tick(k);  // Boundaries the run's last step reached.
      out->files[kSnapshot] += k.snapshots()->Jsonl();
    }
    if (k.trace().overwritten() > 0) {
      Appendf(&out->warnings, "machcont_sim: warning: %strace ring overflowed; %llu oldest "
              "records dropped (raise --trace=N)\n", label[i].c_str(),
              static_cast<ull>(k.trace().overwritten()));
    }
    if (cluster) {
      const mkc::NetStats& ns = k.netipc()->stats();
      Appendf(&out->net, "node %zu net ........ proxy-ports=%llu rx-ooo-buffered=%llu "
              "rx-ooo-hw=%llu\n", i, static_cast<ull>(ns.proxy_table),
              static_cast<ull>(ns.rx_ooo_buffered), static_cast<ull>(ns.rx_ooo_hw));
    }
  }

  std::string& text = out->reports;
  for (std::size_t i = 0; sc.table && i < nodes.size(); ++i) {
    const mkc::TransferStats& t = nodes[i]->transfer_stats();
    Appendf(&text, "\n%-20s %12s %12s %8s\n", (label[i] + "block reason").c_str(), "blocks",
            "discards", "%");
    for (int r = 0; r < static_cast<int>(BlockReason::kCount); ++r) {
      if (t.by_reason[r].blocks == 0) {
        continue;
      }
      Appendf(&text, "%-20s %12llu %12llu %7.1f%%\n",
              mkc::BlockReasonName(static_cast<BlockReason>(r)),
              static_cast<ull>(t.by_reason[r].blocks), static_cast<ull>(t.by_reason[r].discards),
              100.0 * static_cast<double>(t.by_reason[r].blocks) /
                  static_cast<double>(t.total_blocks));
    }
  }
  for (std::size_t i = 0; sc.hist && i < nodes.size(); ++i) {
    Appendf(&text, "\n%-36s %10s %10s %10s %10s %10s %10s\n", (label[i] + "histogram").c_str(),
            "count", "p50", "p90", "p99", "p99.9", "max");
    nodes[i]->metrics().ForEachHistogram([&](const std::string& name,
                                             const mkc::LatencyHistogram& h) {
      if (h.count() == 0) {
        return;
      }
      Appendf(&text, "%-36s %10llu %10llu %10llu %10llu %10llu %10llu\n", name.c_str(),
              static_cast<ull>(h.count()), static_cast<ull>(h.P50()), static_cast<ull>(h.P90()),
              static_cast<ull>(h.P99()), static_cast<ull>(h.P999()), static_cast<ull>(h.max()));
    });
  }
  for (std::size_t i = 0; sc.report && i < nodes.size(); ++i) {
    Kernel& k = *nodes[i];
    text += "\n" + label[i] + "continuations:\n" +
            k.continuations().ReportTable(&k.recognition());
  }
  // Open-loop runs report per-service SLOs in their own summary instead.
  for (std::size_t i = 0; sc.mode != Mode::kOpenLoop && i < nodes.size(); ++i) {
    const std::string slo = nodes[i]->slo() != nullptr ? SloSummaryText(*nodes[i]->slo()) : "";
    if (!slo.empty()) {
      text += label[i] + slo;
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string stalls =
        nodes[i]->watchdog() != nullptr ? nodes[i]->watchdog()->Report() : "";
    if (!stalls.empty()) {
      text += label[i] + stalls;
    }
  }

  if (!sc.out[kMetrics].empty()) {
    std::string& json = out->files[kMetrics];
    if (!cluster) {
      if (block) {
        nodes[0]->metrics().SetJsonBlock(block_name, block);
      }
      json = nodes[0]->metrics().DumpJsonString();
    } else {
      json = "{\"nodes\":[\n";
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        json += (i > 0 ? ",\n" : "") + nodes[i]->metrics().DumpJsonString();
      }
      json += "\n]";
      if (block) {
        json += ",\"" + std::string(block_name) + "\":" + block();
      }
      json += "}\n";
    }
  }
  if (!sc.out[kTrace].empty()) {
    std::vector<const mkc::TraceBuffer*> traces;
    for (Kernel* k : nodes) {
      traces.push_back(&k->trace());
    }
    out->files[kTrace] =
        cluster ? mkc::ClusterChromeTraceString(traces) : mkc::ChromeTraceString(*traces[0]);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (const mkc::Profiler* prof = nodes[i]->profiler()) {
      out->files[kProfile] += prof->FoldedString(cluster ? "node" + std::to_string(i) + ";" : "");
    }
  }
}

bool WriteOutput(const std::string& path, const std::string& contents) {
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

// The output stage, emit side: the mode's summary (`head`, then `tail`
// after the per-node net lines), the shared reports, and every requested
// file.
int Emit(const Scenario& sc, const std::string& head, const std::string& tail, Rendered& out,
         const mkc::TelemetryPlane* telemetry) {
  std::fputs((head + out.net + tail).c_str(), sc.human);
  std::fputs(out.warnings.c_str(), stderr);
  std::fputs(out.reports.c_str(), sc.human);
  if (telemetry != nullptr) {
    // The collector's rows replace the local sink's.
    std::fprintf(sc.human, "\n%s", mkc::FormatSnapshotTable(telemetry->Rows()).c_str());
    out.files[kSnapshot] = telemetry->Rows();
  }
  bool ok = true;
  for (int o = 0; o < kOutputs; ++o) {
    if (!sc.out[o].empty()) {
      ok = WriteOutput(sc.out[o], out.files[o]) && ok;
    }
  }
  return ok ? 0 : 1;
}

// Workload mode: the kernel lives inside the workload function, so the
// post-run hook renders everything that needs it.
struct WorkloadCapture {
  const Scenario* sc = nullptr;
  Rendered out;
  std::string zone_text;       // Zone lines of the summary.
  std::string cpu_trace_text;  // Per-CPU and trace lines of the summary.
};

void CaptureWorkload(Kernel& kernel, void* arg) {
  auto* cap = static_cast<WorkloadCapture*>(arg);
  Render(*cap->sc, {&kernel}, nullptr, nullptr, &cap->out);
  for (const mkc::Zone* zone :
       {&kernel.ipc().kmsg_small_zone(), &kernel.ipc().kmsg_full_zone()}) {
    const mkc::ZoneStats& zs = zone->stats();
    Appendf(&cap->zone_text,
            "zone %-10s ... in-use=%llu high-water=%llu created=%llu magazine-hit-rate=%.1f%%\n",
            zone->name().c_str(), static_cast<ull>(zs.in_use), static_cast<ull>(zs.high_water),
            static_cast<ull>(zs.created), 100.0 * zs.MagazineHitRate());
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
      Appendf(&cap->cpu_trace_text,
              "cpu%d .............. %5.1f%% util (dequeues=%llu steals=%llu "
              "stack-hits=%llu misses=%llu idle-yields=%llu)\n",
              i, util, static_cast<ull>(cpu.local_dequeues), static_cast<ull>(cpu.steals),
              static_cast<ull>(cpu.stack_cache_hits), static_cast<ull>(cpu.stack_cache_misses),
              static_cast<ull>(cpu.idle_yields));
    }
  }
  const mkc::TraceBuffer& trace = kernel.trace();
  if (trace.enabled()) {
    Appendf(&cap->cpu_trace_text,
            "trace ............. recorded=%llu retained=%llu overwritten=%llu\n",
            static_cast<ull>(trace.recorded()), static_cast<ull>(trace.retained()),
            static_cast<ull>(trace.overwritten()));
  }
}

int RunWorkload(Scenario& sc) {
  WorkloadCapture cap;
  cap.sc = &sc;
  sc.params.post_run = &CaptureWorkload;
  sc.params.post_run_arg = &cap;
  const mkc::WorkloadReport r = sc.workload(sc.config, sc.params);

  std::string head;
  Appendf(&head, "workload %s on %s, scale %d, seed %llu\n", sc.workload_name,
          mkc::ModelName(r.model), sc.params.scale, static_cast<ull>(sc.params.seed));
  // One-line machine-grepable summary, always printed.
  Appendf(&head,
          "summary: blocks=%llu discards=%llu handoffs=%llu recognitions=%llu "
          "msgs=%llu faults=%llu exceptions=%llu vtime=%llu\n",
          static_cast<ull>(r.transfer.total_blocks), static_cast<ull>(r.transfer.TotalDiscards()),
          static_cast<ull>(r.transfer.stack_handoffs), static_cast<ull>(r.transfer.recognitions),
          static_cast<ull>(r.ipc.messages_sent), static_cast<ull>(r.vm.user_faults),
          static_cast<ull>(r.exc.raised), static_cast<ull>(r.virtual_time));
  Appendf(&head, "virtual time ...... %llu ticks (%.2f simulated ms)\n",
          static_cast<ull>(r.virtual_time), mkc::CyclesToMicros(r.virtual_time) / 1000.0);
  Appendf(&head, "wall time ......... %.3f ms\n", r.wall_seconds * 1000.0);
  Appendf(&head, "blocks ............ %llu (%llu discards, %llu handoffs, %llu recognitions)\n",
          static_cast<ull>(r.transfer.total_blocks), static_cast<ull>(r.transfer.TotalDiscards()),
          static_cast<ull>(r.transfer.stack_handoffs), static_cast<ull>(r.transfer.recognitions));
  Appendf(&head, "kernel stacks ..... avg %.3f in use, max %llu (cache max %llu)\n",
          r.stacks.AverageInUse(), static_cast<ull>(r.stacks.max_in_use),
          static_cast<ull>(r.stacks.max_cached));
  Appendf(&head, "ipc ............... %llu msgs (%llu fast-path, %llu queued)\n",
          static_cast<ull>(r.ipc.messages_sent), static_cast<ull>(r.ipc.fast_rpc_handoffs),
          static_cast<ull>(r.ipc.queued_sends));
  head += cap.zone_text;
  Appendf(&head, "vm ................ %llu faults (%llu pageins, %llu pageouts)\n",
          static_cast<ull>(r.vm.user_faults), static_cast<ull>(r.vm.pageins),
          static_cast<ull>(r.vm.pageouts));
  Appendf(&head, "exceptions ........ %llu raised (%llu fast deliveries)\n",
          static_cast<ull>(r.exc.raised), static_cast<ull>(r.exc.fast_deliveries));
  head += cap.cpu_trace_text;
  return Emit(sc, head, "", cap.out, nullptr);
}

std::vector<Kernel*> NodeKernels(mkc::Cluster& cluster, int nodes) {
  std::vector<Kernel*> kernels;
  for (int i = 0; i < nodes; ++i) {
    kernels.push_back(&cluster.node(i));
  }
  return kernels;
}

// Cluster mode: the canonical cross-node RPC workload over netipc.
int RunCluster(const Scenario& sc) {
  mkc::Cluster cluster(sc.config, sc.nodes, sc.link);
  mkc::ClusterRpcParams cp;
  cp.scale = sc.params.scale;
  std::unique_ptr<mkc::TelemetryPlane> telemetry;
  if (sc.telemetry) {
    telemetry = std::make_unique<mkc::TelemetryPlane>(cluster);
    cp.pre_drain = &mkc::TelemetryPlane::PreDrainHook;
    cp.pre_drain_arg = telemetry.get();
  }
  const mkc::ClusterReport r = mkc::RunClusterRpcWorkload(cluster, cp);

  std::string head;
  Appendf(&head, "cluster netipc on %s, nodes %d, scale %d, seed %llu, drop %u/1000",
          mkc::ModelName(sc.config.model), sc.nodes, sc.params.scale,
          static_cast<ull>(sc.params.seed), sc.link.drop_per_mille);
  if (sc.link.reorder_per_mille > 0) {
    Appendf(&head, ", reorder %u/1000", sc.link.reorder_per_mille);
  }
  Appendf(&head, "\nsummary: rpcs=%llu failed=%llu retransmits=%llu giveups=%llu msgs=%llu "
          "vtime=%llu\n", static_cast<ull>(r.rpcs_ok), static_cast<ull>(r.rpcs_failed),
          static_cast<ull>(r.net.retransmits), static_cast<ull>(r.net.give_ups),
          static_cast<ull>(r.net.msgs_in), static_cast<ull>(r.virtual_time));
  Appendf(&head, "virtual time ...... %llu ticks (%.2f simulated ms)\n",
          static_cast<ull>(r.virtual_time), mkc::CyclesToMicros(r.virtual_time) / 1000.0);
  Appendf(&head, "wall time ......... %.3f ms\n", r.wall_seconds * 1000.0);
  Appendf(&head, "net ............... tx=%llu rx=%llu pkts (%llu bytes, drops=%llu dups=%llu "
          "queue-full=%llu)\n", static_cast<ull>(r.net.packets_tx),
          static_cast<ull>(r.net.packets_rx), static_cast<ull>(r.net.bytes_tx),
          static_cast<ull>(r.net.drops), static_cast<ull>(r.net.dups),
          static_cast<ull>(r.net.queue_full));
  Appendf(&head, "protocol .......... acks=%llu dead=%llu dup-data=%llu backpressure=%llu\n",
          static_cast<ull>(r.net.acks_rx), static_cast<ull>(r.net.dead_rx),
          static_cast<ull>(r.net.rx_dup_data), static_cast<ull>(r.net.rx_backpressure));
  Appendf(&head, "proxies ........... live=%llu gc=%llu\n", static_cast<ull>(r.net.proxy_table),
          static_cast<ull>(r.net.proxy_gcs));
  std::string tail;
  const double goodput_ratio = r.net.bytes_tx > 0 ? static_cast<double>(r.net.bytes_goodput) /
                                                        static_cast<double>(r.net.bytes_tx)
                                                  : 0.0;
  Appendf(&tail, "protocol v2 ....... piggybacked=%llu coalesced=%llu fast-retx=%llu "
          "ooo-buffered=%llu goodput/raw=%.3f\n", static_cast<ull>(r.net.acks_piggybacked),
          static_cast<ull>(r.net.frames_coalesced), static_cast<ull>(r.net.fast_retransmits),
          static_cast<ull>(r.net.rx_ooo_buffered), goodput_ratio);
  if (r.net.ool_pulls > 0 || r.net.ool_pull_fails > 0) {
    Appendf(&tail, "ool ............... pulls=%llu pushes=%llu bytes=%llu fails=%llu\n",
            static_cast<ull>(r.net.ool_pulls), static_cast<ull>(r.net.ool_pushes),
            static_cast<ull>(r.net.ool_bytes_pulled), static_cast<ull>(r.net.ool_pull_fails));
  }

  const std::vector<Kernel*> nodes = NodeKernels(cluster, sc.nodes);
  // The cluster-merged SLO view rides beside the per-node registries, only
  // while --slo armed the trackers.
  std::function<std::string()> merged_slo;
  if (sc.config.slo_window > 0) {
    merged_slo = [&nodes] {
      std::vector<const mkc::SloTracker*> trackers;
      for (Kernel* k : nodes) {
        trackers.push_back(k->slo());
      }
      return mkc::SloTracker::MergedJsonBlock(trackers);
    };
  }
  Rendered out;
  Render(sc, nodes, "slo", merged_slo, &out);
  return Emit(sc, head, tail, out, telemetry.get());
}

// Open-loop service-fabric mode: seeded arrivals against the sharded
// services, single kernel or cluster. Everything printed is a pure function
// of (config, seed) — no wall-clock line — so the CI determinism smoke can
// compare whole outputs byte for byte.
int RunOpenLoop(const Scenario& sc) {
  mkc::OpenLoopParams op = sc.openloop;
  op.seed = sc.params.seed;
  op.total_arrivals = static_cast<std::uint64_t>(500) * sc.params.scale;
  if (sc.config.slo_window > 0) {
    op.slo_window = sc.config.slo_window;
  }
  std::unique_ptr<mkc::Cluster> cluster;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<mkc::OpenLoopEngine> engine;
  std::unique_ptr<mkc::TelemetryPlane> telemetry;
  std::vector<Kernel*> nodes;
  if (sc.nodes > 1) {
    cluster = std::make_unique<mkc::Cluster>(sc.config, sc.nodes, sc.link);
    engine = std::make_unique<mkc::OpenLoopEngine>(*cluster, op);
    nodes = NodeKernels(*cluster, sc.nodes);
    if (sc.telemetry) {
      telemetry = std::make_unique<mkc::TelemetryPlane>(*cluster);
    }
  } else {
    kernel = std::make_unique<Kernel>(sc.config);
    engine = std::make_unique<mkc::OpenLoopEngine>(*kernel, op);
    nodes.push_back(kernel.get());
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (mkc::SnapshotEmitter* snapshots = nodes[i]->snapshots()) {
      snapshots->AttachSvc(engine->node_stats(static_cast<int>(i)),
                           i == 0 ? engine->backlog_gauge() : nullptr);
    }
  }
  if (cluster != nullptr) {
    cluster->Run();
    if (telemetry != nullptr) {
      telemetry->Stop();
    }
    cluster->Drain();
  } else {
    kernel->Run();
  }
  const mkc::OpenLoopReport rep = engine->Finish();
  const mkc::SvcNodeStats svc = engine->TotalSvcStats();

  std::string head;
  Appendf(&head, "openloop on %s, nodes %d, rate %llu/Mtick, %s arrivals, "
          "services name:%d,file:%d,counter:%d, shed-depth %u, seed %llu\n",
          mkc::ModelName(sc.config.model), sc.nodes, static_cast<ull>(op.rate),
          op.bursty ? "bursty" : "poisson", op.services.shards[0], op.services.shards[1],
          op.services.shards[2], op.shed_depth, static_cast<ull>(op.seed));
  Appendf(&head, "summary: arrivals=%llu completed=%llu goodput=%llu shed=%llu retries=%llu "
          "failed=%llu stream=%016llx vtime=%llu\n", static_cast<ull>(rep.arrivals_total),
          static_cast<ull>(rep.completed_total), static_cast<ull>(rep.deadline_met_total),
          static_cast<ull>(rep.shed_total), static_cast<ull>(rep.retries_total),
          static_cast<ull>(rep.failed_total), static_cast<ull>(rep.stream_hash),
          static_cast<ull>(rep.virtual_time));
  Appendf(&head, "services .......... admitted=%llu shed=%llu retried=%llu\n",
          static_cast<ull>(svc.admitted_total), static_cast<ull>(rep.shed_total),
          static_cast<ull>(rep.retries_total));
  for (int k = 0; k < mkc::kServiceKindCount; ++k) {
    const mkc::OpenLoopKindReport& kr = rep.kind[k];
    if (kr.arrivals == 0) {
      continue;
    }
    const std::uint64_t kshed =
        svc.kind[k].shed_queue + svc.kind[k].shed_deadline + kr.client_shed;
    Appendf(&head, "svc %-11s ... arrivals=%llu admitted=%llu shed=%llu retried=%llu "
            "goodput=%llu p50=%llu p99=%llu p99.9=%llu\n", mkc::ServiceKindName(k),
            static_cast<ull>(kr.arrivals), static_cast<ull>(svc.kind[k].admitted),
            static_cast<ull>(kshed), static_cast<ull>(kr.retries),
            static_cast<ull>(kr.deadline_met), static_cast<ull>(rep.latency[k].p50),
            static_cast<ull>(rep.latency[k].p99), static_cast<ull>(rep.latency[k].p999));
  }

  Rendered out;
  Render(sc, nodes, "svc_slo",
         [&engine, &rep] { return engine->svc_slo().JsonBlock(rep.virtual_time); }, &out);
  return Emit(sc, head, "", out, telemetry.get());
}

}  // namespace

int main(int argc, char** argv) {
  Scenario sc;
  if (!Parse(argc, argv, &sc)) {
    return Usage(argv[0]);
  }
  switch (sc.mode) {
    case Mode::kWorkload:
      return RunWorkload(sc);
    case Mode::kCluster:
      return RunCluster(sc);
    case Mode::kOpenLoop:
      return RunOpenLoop(sc);
  }
  return 2;
}
