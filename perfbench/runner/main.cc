// Repository benchmark runner.
//
//   perfbench --workload transfer|build|openloop --seed N --seconds S
//             --trace 0|1 [--size tiny] [--no-handoff]
//
// Prints a human-readable log, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and a
// traced pass, checks that their model numbers agree, and reports the
// per-layer metrics. Exits 1 if any output or mechanism check failed.
// --size tiny and --no-handoff exist for the benchmark's self-tests.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "src/machine/context.h"

namespace perfbench {

namespace {

struct SwitchBench {
  mkc::Context main_ctx;
};

void JumpBack(void* pass, void* /*arg*/) {
  mkc::ContextJump(static_cast<SwitchBench*>(pass)->main_ctx, nullptr);
}

}  // namespace

double MachineSwitchNs(int batches) {
  constexpr int kPerBatch = 20000;
  std::vector<unsigned char> stack(64 * 1024);
  SwitchBench sb;
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    std::int64_t t0 = HostNanos();
    for (int i = 0; i < kPerBatch; ++i) {
      mkc::Context fresh = mkc::MakeContext(stack.data(), stack.size(), &JumpBack, nullptr);
      mkc::ContextSwitch(&sb.main_ctx, fresh, &sb);
    }
    ns.push_back(static_cast<double>(HostNanos() - t0) / kPerBatch);
  }
  return Median(ns);
}

namespace {

// Every metric a mode reports, with its unit, in output order. A workload
// that does not exercise a layer reports 0 for that layer's metrics.
struct CatalogEntry {
  const char* name;
  const char* unit;
};

constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"}, {"sim_mcycles", "Mcycles"},
    {"stack_kib_max", "KiB"}, {"goodput_pct", "%"},   {"op_ns", "ns"},
};

constexpr CatalogEntry kPerLayer[] = {
    {"op.syscall_ns", "ns"},
    {"op.transfer_ns", "ns"},
    {"op.rpc_ns", "ns"},
    {"op.exc_ns", "ns"},
    {"op.fault_ns", "ns"},
    {"op.mk40_over_mk32", "ratio"},
    {"trace.overhead_pct", "%"},
    {"closure.syscall.residual_pct", "%"},
    {"closure.transfer.residual_pct", "%"},
    {"closure.rpc.residual_pct", "%"},
    {"closure.exc.residual_pct", "%"},
    {"closure.fault.residual_pct", "%"},
    {"machine.switch_ns", "ns"},
    {"machine.transfer_over_switch", "ratio"},
    {"task.syscall.span_ns", "ns"},
    {"task.syscall.sim_cycles", "cycles"},
    {"kern.yield.span_ns", "ns"},
    {"kern.yield.sim_cycles", "cycles"},
    {"kern.handoff_per_transfer", "ratio"},
    {"kern.recognition_pct", "%"},
    {"kern.discard_pct", "%"},
    {"kern.stack.cache_hit_pct", "%"},
    {"kern.stack.max_in_use", "count"},
    {"kern.zone.magazine_hit_pct", "%"},
    {"kern.setup.span_s", "s"},
    {"kern.run.span_s", "s"},
    {"ipc.rpc.span_ns", "ns"},
    {"ipc.rpc.sim_cycles", "cycles"},
    {"ipc.serve.span_ns", "ns"},
    {"ipc.fast_rpc_pct", "%"},
    {"ipc.queued_send_pct", "%"},
    {"exc.raise.span_ns", "ns"},
    {"exc.raise.sim_cycles", "cycles"},
    {"exc.fast_delivery_pct", "%"},
    {"vm.touch.span_ns", "ns"},
    {"vm.touch.sim_cycles", "cycles"},
    {"vm.alloc.span_ns", "ns"},
    {"vm.pageins_per_kblock", "count"},
    {"vm.pageouts_per_kblock", "count"},
    {"vm.fault_blocks_per_kblock", "count"},
    {"net.run.span_s", "s"},
    {"net.packets_per_request", "ratio"},
    {"net.goodput_byte_pct", "%"},
    {"net.retransmit_pct", "%"},
    {"net.acks_piggybacked", "count"},
    {"net.frames_coalesced", "count"},
    {"net.give_ups", "count"},
    {"svc.name.admit_pct", "%"},
    {"svc.name.shed_queue", "count"},
    {"svc.name.shed_deadline", "count"},
    {"svc.file.admit_pct", "%"},
    {"svc.file.shed_queue", "count"},
    {"svc.file.shed_deadline", "count"},
    {"svc.counter.admit_pct", "%"},
    {"svc.counter.shed_queue", "count"},
    {"svc.counter.shed_deadline", "count"},
    {"workload.engine_setup.span_s", "s"},
    {"workload.arrivals.span_ns", "ns"},
    {"workload.client_shed", "count"},
    {"workload.retries", "count"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload transfer|build|openloop --seed N "
               "--seconds S --trace 0|1 [--size tiny] [--no-handoff]\n");
  return 2;
}

bool ParseU64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--no-handoff") {
      opt.no_handoff = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) {
      return Usage();
    }
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && ParseU64(v, &n)) {
      opt.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && ParseU64(v, &n) && n > 0) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && ParseU64(v, &n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else if (arg == "--size" && std::strcmp(v, "tiny") == 0) {
      opt.size = Size::kTiny;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  Result res;
  if (opt.workload == "transfer") {
    res = RunTransfer(opt);
  } else if (opt.workload == "build") {
    res = RunBuild(opt);
  } else if (opt.workload == "openloop") {
    res = RunOpenLoop(opt);
  } else {
    return Usage();
  }

  for (const std::string& n : res.notes) {
    std::printf("%s\n", n.c_str());
  }
  res.Check(res.attempted > 0, "no operations were attempted");
  std::map<std::string, const Metric*> reported;
  for (const Metric& m : res.metrics) {
    reported[m.name] = &m;
  }
  std::string body;
  std::size_t used = 0;
  auto emit_all = [&](const auto& catalog) {
    for (const CatalogEntry& e : catalog) {
      double value = 0.0;
      auto it = reported.find(e.name);
      if (it != reported.end()) {
        ++used;
        value = it->second->value;
        res.Check(it->second->unit == e.unit, std::string("metric ") + e.name + " has unit " +
                                                  it->second->unit + ", catalog says " + e.unit);
      }
      body += std::string(body.empty() ? "" : ", ") + "\"" + e.name + "\": {\"value\": " +
              JsonNumber(value) + ", \"unit\": \"" + e.unit + "\"}";
    }
  };
  if (opt.trace) {
    emit_all(kPerLayer);
  } else {
    emit_all(kEndToEnd);
  }
  res.Check(used == reported.size(), "the workload reported a metric missing from the catalog");
  for (const std::string& e : res.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {" + body;
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
