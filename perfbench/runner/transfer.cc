// Workload `transfer`: the paper's headline control-transfer micro-ops,
// closed-loop, MK40 against MK32 in alternating rounds.
//
// Every (op, model) pair owns one kernel for the whole run. A round runs one
// fixed-size batch of each op on each model; the model that goes first
// alternates per round, so a machine-wide speed swing hits both sides of
// the MK40/MK32 ratio alike. A batch is one simulated client thread (plus a
// yield partner) created for the round; the timed loop runs inside it and
// Kernel::Run returns when it exits. Servers are daemon threads that stay
// blocked in UserServeOnce between rounds.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "perfbench/runner/kstats.h"
#include "perfbench/runner/spans.h"
#include "src/exc/exception.h"
#include "src/ipc/ipc_space.h"
#include "src/kern/kernel.h"
#include "src/task/task.h"
#include "src/task/usermode.h"
#include "src/vm/page.h"

namespace perfbench {
namespace {

using mkc::ControlTransferModel;
using mkc::KernReturn;

enum Op { kSyscall, kYield, kRpc, kExc, kFault, kOpCount };
constexpr const char* kOpName[kOpCount] = {"syscall", "transfer", "rpc", "exc", "fault"};
// Ops per batch, sized so each batch takes roughly a millisecond of host time.
constexpr int kBatch[kOpCount] = {4096, 2048, 1024, 1024, 512};
constexpr int kTinyBatch = 16;
constexpr int kModels = 2;  // 0 = MK40, 1 = MK32.
constexpr ControlTransferModel kModel[kModels] = {ControlTransferModel::kMK40,
                                                 ControlTransferModel::kMK32};
// Rounds whose model state must match exactly between the untraced and the
// traced pass, and the minimum any pass runs.
constexpr int kReferenceRounds = 3;
constexpr int kSetupReps = 15;
constexpr int kGenerationRounds = 200;
// Largest share of the traced windows the spans may leave unattributed.
constexpr double kMaxResidualPct = 1.0;
constexpr std::uint32_t kRpcBytes = 8;

struct Steps {
  int loop = 0, stub = 0, alloc = 0, dealloc = 0, server_loop = 0, server_stub = 0;
};

// One (op, model) machine and everything its threads share.
struct Rig {
  Op op = kSyscall;
  ControlTransferModel model = ControlTransferModel::kMK40;
  std::unique_ptr<mkc::Kernel> kernel;
  mkc::Task* task = nullptr;
  mkc::PortId service = mkc::kInvalidPort;  // RPC service or exception port.
  mkc::PortId reply = mkc::kInvalidPort;
  int batch = 0;
  std::uint64_t token = 0;  // RPC payload base, from the seed.

  StepTracer* tracer = nullptr;  // Null in the untraced pass.
  Steps steps;

  // Last batch.
  double ns_per_op = 0.0;
  std::uint64_t failures = 0;
  mkc::TransferStats before, after;
  std::uint64_t exc_replies_before = 0, exc_replies_after = 0;
  std::uint64_t zero_fills_before = 0, zero_fills_after = 0;
  std::int64_t t0 = 0;
};

template <bool kT, typename F>
auto InSpan(Rig& r, int actor, int step, F&& f) {
  if constexpr (kT) {
    r.tracer->Enter(actor, step);
  }
  auto v = f();
  if constexpr (kT) {
    r.tracer->Exit(actor);
  }
  return v;
}

template <bool kT>
void BatchBegin(Rig& r) {
  mkc::Kernel& k = mkc::ActiveKernel();
  r.before = k.transfer_stats();
  r.exc_replies_before = k.exc_stats().replies;
  r.zero_fills_before = k.vm().stats().zero_fills;
  r.t0 = HostNanos();
  if constexpr (kT) {
    r.tracer->OpenWindow(0, r.steps.loop);
  }
}

template <bool kT>
void BatchEnd(Rig& r) {
  if constexpr (kT) {
    r.tracer->CloseWindow(0);
  }
  r.ns_per_op = static_cast<double>(HostNanos() - r.t0) / r.batch;
  mkc::Kernel& k = mkc::ActiveKernel();
  r.after = k.transfer_stats();
  r.exc_replies_after = k.exc_stats().replies;
  r.zero_fills_after = k.vm().stats().zero_fills;
}

template <bool kT>
void YieldPartner(void* arg) {
  Rig& r = *static_cast<Rig*>(arg);
  if constexpr (kT) {
    r.tracer->Enter(1, r.steps.server_loop);
  }
  for (int i = 0; i < r.batch; ++i) {
    if (InSpan<kT>(r, 1, r.steps.stub, [] { return mkc::UserYield(); }) != KernReturn::kSuccess) {
      ++r.failures;
    }
  }
  if constexpr (kT) {
    r.tracer->Exit(1);
  }
}

// Echo server: the reply carries the request body back unchanged.
template <bool kT>
void RpcServer(void* arg) {
  Rig& r = *static_cast<Rig*>(arg);
  if constexpr (kT) {
    r.tracer->Enter(1, r.steps.server_loop);
  }
  mkc::UserMessage msg;
  auto serve = [&](std::uint32_t reply_size) {
    return InSpan<kT>(r, 1, r.steps.server_stub,
                      [&] { return mkc::UserServeOnce(&msg, reply_size, r.service); });
  };
  KernReturn kr = serve(0);
  while (kr == KernReturn::kSuccess) {
    msg.header.dest = msg.header.reply;
    kr = serve(kRpcBytes);
  }
}

// Same-task exception server that restarts the faulter without examining it
// (the paper's Table 3 exception test).
template <bool kT>
void ExcServer(void* arg) {
  Rig& r = *static_cast<Rig*>(arg);
  if constexpr (kT) {
    r.tracer->Enter(1, r.steps.server_loop);
  }
  mkc::UserMessage msg;
  auto serve = [&](std::uint32_t reply_size) {
    return InSpan<kT>(r, 1, r.steps.server_stub,
                      [&] { return mkc::UserServeOnce(&msg, reply_size, r.service); });
  };
  KernReturn kr = serve(0);
  while (kr == KernReturn::kSuccess) {
    mkc::ExcRequestBody req;
    std::memcpy(&req, msg.body, sizeof(req));
    mkc::ExcReplyBody reply;
    reply.handled = 1;
    msg.header.dest = req.reply_port;
    msg.header.msg_id = mkc::kExcReplyMsgId;
    std::memcpy(msg.body, &reply, sizeof(reply));
    kr = serve(sizeof(reply));
  }
}

template <bool kT>
void Client(void* arg) {
  Rig& r = *static_cast<Rig*>(arg);
  const Steps& s = r.steps;
  auto ok = [&](bool good) {
    if (!good) {
      ++r.failures;
    }
  };
  switch (r.op) {
    case kSyscall:
      BatchBegin<kT>(r);
      for (int i = 0; i < r.batch; ++i) {
        ok(InSpan<kT>(r, 0, s.stub, [] { return mkc::UserNullSyscall(); }) ==
           KernReturn::kSuccess);
      }
      BatchEnd<kT>(r);
      break;
    case kYield:
      BatchBegin<kT>(r);
      for (int i = 0; i < r.batch; ++i) {
        ok(InSpan<kT>(r, 0, s.stub, [] { return mkc::UserYield(); }) == KernReturn::kSuccess);
      }
      BatchEnd<kT>(r);
      break;
    case kRpc: {
      mkc::UserMessage msg;
      BatchBegin<kT>(r);
      for (int i = 0; i < r.batch; ++i) {
        const std::uint64_t token = r.token + static_cast<std::uint64_t>(i);
        msg.header.dest = r.service;
        msg.header.msg_id = 1;
        std::memcpy(msg.body, &token, sizeof(token));
        KernReturn kr = InSpan<kT>(r, 0, s.stub,
                                   [&] { return mkc::UserRpc(&msg, kRpcBytes, r.reply); });
        std::uint64_t echoed = 0;
        std::memcpy(&echoed, msg.body, sizeof(echoed));
        ok(kr == KernReturn::kSuccess && echoed == token && msg.header.size == kRpcBytes);
      }
      BatchEnd<kT>(r);
      break;
    }
    case kExc:
      mkc::UserSetExceptionPort(r.service);
      BatchBegin<kT>(r);
      for (int i = 0; i < r.batch; ++i) {
        InSpan<kT>(r, 0, s.stub, [] {
          mkc::UserRaiseException(mkc::kExcSoftware);
          return 0;
        });
      }
      BatchEnd<kT>(r);
      break;
    case kFault:
      BatchBegin<kT>(r);
      for (int i = 0; i < r.batch; ++i) {
        mkc::VmAddress a = InSpan<kT>(
            r, 0, s.alloc, [] { return mkc::UserVmAllocate(mkc::kPageSize, /*paged=*/false); });
        InSpan<kT>(r, 0, s.stub, [&] {
          mkc::UserTouch(a, /*write=*/true);
          return 0;
        });
        ok(a != 0 && InSpan<kT>(r, 0, s.dealloc, [&] { return mkc::UserVmDeallocate(a); }) ==
                         KernReturn::kSuccess);
      }
      BatchEnd<kT>(r);
      break;
    default:
      break;
  }
}

// The span steps of one (op, model) machine; the tracer outlives the
// machine generations of a pass.
struct Traced {
  std::unique_ptr<StepTracer> tracer;
  Steps steps;
};

// Builds every rig: kernels, tasks, ports and the daemon servers.
std::vector<std::unique_ptr<Rig>> BuildRigs(const Options& opt, std::vector<Traced>* traced) {
  std::vector<std::unique_ptr<Rig>> rigs;
  for (int op = 0; op < kOpCount; ++op) {
    for (int m = 0; m < kModels; ++m) {
      auto r = std::make_unique<Rig>();
      r->op = static_cast<Op>(op);
      r->model = kModel[m];
      r->batch = opt.size == Size::kTiny ? kTinyBatch : kBatch[op];
      r->token = opt.seed * 0x9e3779b97f4a7c15ULL;
      mkc::KernelConfig config;
      config.model = kModel[m];
      config.seed = opt.seed;
      config.enable_handoff = !opt.no_handoff;
      r->kernel = std::make_unique<mkc::Kernel>(config);
      mkc::Kernel& k = *r->kernel;
      r->task = k.CreateTask("client");
      if (traced != nullptr) {
        Traced& t = (*traced)[rigs.size()];
        t.tracer->ResetActors();
        r->tracer = t.tracer.get();
        r->steps = t.steps;
      }
      const bool tr = traced != nullptr;
      mkc::ThreadOptions daemon;
      daemon.daemon = true;
      if (op == kRpc) {
        mkc::Task* server = k.CreateTask("server");
        r->service = k.ipc().AllocatePort(server);
        r->reply = k.ipc().AllocatePort(r->task);
        k.CreateUserThread(server, tr ? &RpcServer<true> : &RpcServer<false>, r.get(), daemon);
      } else if (op == kExc) {
        r->service = k.ipc().AllocatePort(r->task);
        k.CreateUserThread(r->task, tr ? &ExcServer<true> : &ExcServer<false>, r.get(), daemon);
      }
      rigs.push_back(std::move(r));
    }
  }
  return rigs;
}

// Runs one batch on `r` and checks its outputs and, on MK40 with handoff
// and recognition enabled, that the paper's mechanisms were used.
// Returns the host seconds spent in Kernel::Run.
double RunBatch(Rig& r, bool traced, Result& res) {
  mkc::Kernel& k = *r.kernel;
  r.failures = 0;
  k.CreateUserThread(r.task, traced ? &Client<true> : &Client<false>, &r);
  if (r.op == kYield) {
    k.CreateUserThread(r.task, traced ? &YieldPartner<true> : &YieldPartner<false>, &r);
  }
  const double t0 = HostSeconds();
  k.Run();
  const double run_s = HostSeconds() - t0;
  const int ops = r.batch * (r.op == kYield ? 2 : 1);
  res.attempted += static_cast<std::uint64_t>(ops);
  res.failed += r.failures;
  const std::string what = std::string(kOpName[r.op]) + "/" + mkc::ModelName(r.model);
  res.Check(r.failures == 0, what + ": an op failed or an RPC reply did not echo the request");
  if (r.op == kExc) {
    res.Check(r.exc_replies_after - r.exc_replies_before == static_cast<std::uint64_t>(r.batch),
              what + ": exception replies != raises");
  }
  if (r.op == kFault) {
    res.Check(r.zero_fills_after - r.zero_fills_before == static_cast<std::uint64_t>(r.batch),
              what + ": zero-fill faults != touches");
  }
  if (r.model != ControlTransferModel::kMK40) {
    return run_s;
  }
  const std::uint64_t handoffs = r.after.stack_handoffs - r.before.stack_handoffs;
  const std::uint64_t recognitions = r.after.recognitions - r.before.recognitions;
  const std::uint64_t blocks = r.after.total_blocks - r.before.total_blocks;
  // Control transfers the batch's ops imply: a yield ping-pong, an RPC and
  // an exception each move control twice per iteration; a syscall and a
  // zero-fill fault never block.
  const bool blocks_twice = r.op == kYield || r.op == kRpc || r.op == kExc;
  const std::uint64_t transfers = blocks_twice ? 2 * static_cast<std::uint64_t>(r.batch) : 0;
  res.Check(blocks == transfers, what + ": kernel blocks != transfers implied by the ops (" +
                                     std::to_string(blocks) + " vs " +
                                     std::to_string(transfers) + ")");
  res.Check(handoffs == transfers, what + ": stack handoffs != transfers (" +
                                       std::to_string(handoffs) + " vs " +
                                       std::to_string(transfers) + ")");
  if (r.op == kRpc || r.op == kExc) {
    res.Check(recognitions == transfers, what + ": resumes not recognised (" +
                                             std::to_string(recognitions) + " of " +
                                             std::to_string(transfers) + ")");
  }
  return run_s;
}

struct PassResult {
  // Host ns/op of every batch, per op and model.
  std::vector<double> ns[kOpCount][kModels];
  std::vector<double> cal;  // CalibrationNs() once per round.
  std::vector<std::uint64_t> reference_state;  // Model state after the reference rounds.
  std::uint64_t round_mk40_ticks = 0;           // Virtual time of one MK40 round.
  std::uint64_t rounds = 0;
  LayerCounters mk40;  // First generation's MK40 kernels, summed.
  double setup_s = 0.0;
  double run_s = 0.0;  // Host seconds inside Kernel::Run, all rounds.
  std::vector<Traced> traced;
};

// Runs rounds until `seconds` have passed (at least kReferenceRounds). The
// machines are rebuilt every kGenerationRounds rounds, so a kernel's table
// of exited threads, and with it peak RSS, does not grow with the round
// count; each rebuild is one more set-up sample.
PassResult RunPass(const Options& opt, bool traced, double seconds, Result& res) {
  PassResult pass;
  if (traced) {
    for (int i = 0; i < kOpCount * kModels; ++i) {
      Traced t;
      t.tracer = std::make_unique<StepTracer>();
      const std::string op_name = kOpName[i / kModels];
      t.steps.loop = t.tracer->AddStep("loop." + op_name);
      t.steps.server_loop = t.tracer->AddStep("server_loop." + op_name);
      t.steps.server_stub = t.tracer->AddStep("server_stub." + op_name);
      t.steps.stub = t.tracer->AddStep("stub." + op_name);
      t.steps.alloc = t.tracer->AddStep("alloc." + op_name);
      t.steps.dealloc = t.tracer->AddStep("dealloc." + op_name);
      pass.traced.push_back(std::move(t));
    }
  }
  std::vector<Traced>* tracers = traced ? &pass.traced : nullptr;
  std::vector<double> setups;
  std::vector<std::unique_ptr<Rig>> rigs;
  auto build = [&] {
    rigs.clear();
    const double t = HostSeconds();
    rigs = BuildRigs(opt, tracers);
    setups.push_back(HostSeconds() - t);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    build();
  }
  auto retire = [&] {
    if (pass.mk40.xfer.total_blocks == 0) {
      for (const auto& r : rigs) {
        if (r->model == ControlTransferModel::kMK40) {
          pass.mk40.Add(*r->kernel);
        }
      }
    }
  };

  const double deadline = HostSeconds() + seconds;
  std::vector<std::uint64_t> prev_ticks(rigs.size(), 0);
  std::uint64_t first_round_ticks = 0;
  for (int round = 0; round < kReferenceRounds || HostSeconds() < deadline; ++round) {
    const int gen_round = round % kGenerationRounds;
    if (round > 0 && gen_round == 0) {
      retire();
      build();
      std::fill(prev_ticks.begin(), prev_ticks.end(), 0);
    }
    std::uint64_t mk40_ticks = 0;
    pass.cal.push_back(CalibrationNs());
    for (int op = 0; op < kOpCount; ++op) {
      for (int i = 0; i < kModels; ++i) {
        const int m = (round % 2 == 0) ? i : kModels - 1 - i;
        const std::size_t idx = static_cast<std::size_t>(op * kModels + m);
        Rig& r = *rigs[idx];
        pass.run_s += RunBatch(r, traced, res);
        pass.ns[op][m].push_back(r.ns_per_op);
        const std::uint64_t now = r.kernel->VirtualTime();
        if (m == 0) {
          mk40_ticks += now - prev_ticks[idx];
        }
        prev_ticks[idx] = now;
      }
    }
    // A fresh machine's first round pays one-time costs; every later round
    // does identical model work.
    if (round == 0) {
      first_round_ticks = mk40_ticks;
    } else if (round == 1) {
      pass.round_mk40_ticks = mk40_ticks;
    } else {
      res.Check(mk40_ticks == (gen_round == 0 ? first_round_ticks : pass.round_mk40_ticks),
                "transfer: MK40 virtual time differs between rounds");
    }
    if (round + 1 == kReferenceRounds) {
      for (const auto& r : rigs) {
        std::vector<std::uint64_t> snap = ModelSnapshot(*r->kernel);
        pass.reference_state.insert(pass.reference_state.end(), snap.begin(), snap.end());
      }
    }
    ++pass.rounds;
  }
  retire();
  pass.setup_s = Median(setups);
  return pass;
}

// Per op: the MK40 calibrated ns/op and the median over rounds of the
// in-round MK40/MK32 ratio. Raw quantiles of the batches go to the log.
struct HostSummary {
  double op_ns[kOpCount] = {};
  double geo_ns = 0.0;
  double geo_ratio = 0.0;
};

HostSummary Summarize(const PassResult& pass, Result& res, const char* label) {
  HostSummary h;
  std::vector<double> ns, ratios;
  for (int op = 0; op < kOpCount; ++op) {
    const std::vector<double>& mk40 = pass.ns[op][0];
    const std::vector<double>& mk32 = pass.ns[op][1];
    std::vector<double> rr;
    for (std::size_t i = 0; i < mk40.size(); ++i) {
      rr.push_back(mk40[i] / mk32[i]);
    }
    h.op_ns[op] = Calibrated(mk40, pass.cal);
    ns.push_back(h.op_ns[op]);
    ratios.push_back(Median(rr));
    char line[240];
    std::snprintf(line, sizeof(line),
                  "%s %-8s MK40 %7.1f calibrated ns/op, raw p10 %7.1f p50 %7.1f p99 %7.1f | "
                  "MK32 raw p10 %7.1f p50 %7.1f | MK40/MK32 %.3f | %zu batches",
                  label, kOpName[op], h.op_ns[op], Quantile(mk40, 0.1), Median(mk40),
                  Quantile(mk40, 0.99), Quantile(mk32, 0.1), Median(mk32), ratios.back(),
                  mk40.size());
    res.notes.push_back(line);
  }
  h.geo_ns = GeoMean(ns);
  h.geo_ratio = GeoMean(ratios);
  res.notes.push_back(std::string(label) + " calibration p50 " +
                      std::to_string(Median(pass.cal) / 1e3) + " us");
  return h;
}

double PerCall(const StepTracer::Step& s, bool ticks) {
  if (s.calls == 0) {
    return 0.0;
  }
  return (ticks ? static_cast<double>(s.self_ticks) : static_cast<double>(s.self_ns)) /
         static_cast<double>(s.calls);
}

// Self-time closure: along each MK40 op's blocking steps, self times plus
// the residual equal the batch windows exactly, in host ns and in virtual
// ticks; the host residual is reported.
void AddClosure(const PassResult& pass, const Options& opt, Result& res) {
  for (int op = 0; op < kOpCount; ++op) {
    const StepTracer& t = *pass.traced[static_cast<std::size_t>(op * kModels)].tracer;
    const double ops = static_cast<double>(pass.rounds) *
                       (opt.size == Size::kTiny ? kTinyBatch : kBatch[op]);
    std::int64_t sum_ns = 0;
    std::uint64_t sum_ticks = 0;
    std::string line = std::string("closure ") + kOpName[op] + " (ns/op):";
    for (int id = 0; id < t.step_count(); ++id) {
      const StepTracer::Step& s = t.step(id);
      if (s.self_ns == 0) {
        continue;
      }
      sum_ns += s.self_ns;
      sum_ticks += s.self_ticks;
      char buf[120];
      std::snprintf(buf, sizeof(buf), " %s %.1f", s.name.c_str(),
                    static_cast<double>(s.self_ns) / ops);
      line += buf;
    }
    const double residual_pct =
        t.window_ns() == 0 ? 0.0
                           : 100.0 * static_cast<double>(t.window_ns() - sum_ns) /
                                 static_cast<double>(t.window_ns());
    char buf[200];
    std::snprintf(buf, sizeof(buf), " | window %.1f ns/op, %.1f cycles/op, residual %.3f%%",
                  static_cast<double>(t.window_ns()) / ops,
                  static_cast<double>(t.window_ticks()) / ops, residual_pct);
    res.notes.push_back(line + buf);
    res.Add(std::string("closure.") + kOpName[op] + ".residual_pct", residual_pct, "%");
    res.Check(t.window_ns() - sum_ns == t.residual_ns() &&
                  t.window_ticks() - sum_ticks == t.residual_ticks() &&
                  residual_pct <= kMaxResidualPct,
              std::string("transfer: span self times do not close over the ") + kOpName[op] +
                  " windows");
  }
}

}  // namespace

Result RunTransfer(const Options& opt) {
  Result res;
  const double budget = opt.size == Size::kTiny ? 0.0 : opt.seconds;
  PassResult plain = RunPass(opt, /*traced=*/false, opt.trace ? budget / 2 : budget, res);
  HostSummary host = Summarize(plain, res, "untraced");
  if (!opt.trace) {
    res.Add("setup_s", plain.setup_s, "s");
    res.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    res.Add("sim_mcycles", static_cast<double>(plain.round_mk40_ticks) / 1e6, "Mcycles");
    res.Add("stack_kib_max", static_cast<double>(plain.mk40.stack_bytes) / 1024.0, "KiB");
    res.Add("goodput_pct", Pct(res.attempted - res.failed, res.attempted), "%");
    res.Add("op_ns", host.geo_ns, "ns");
    return res;
  }

  PassResult traced = RunPass(opt, /*traced=*/true, budget / 2, res);
  HostSummary thost = Summarize(traced, res, "traced");
  res.Check(traced.reference_state == plain.reference_state &&
                traced.round_mk40_ticks == plain.round_mk40_ticks,
            "transfer: model state differs between the traced and untraced passes");

  for (int op = 0; op < kOpCount; ++op) {
    res.Add(std::string("op.") + kOpName[op] + "_ns", host.op_ns[op], "ns");
  }
  res.Add("op.mk40_over_mk32", host.geo_ratio, "ratio");
  res.Add("trace.overhead_pct", 100.0 * (thost.geo_ns - host.geo_ns) / host.geo_ns, "%");
  const double switch_ns = MachineSwitchNs(opt.size == Size::kTiny ? 3 : 51);
  res.Add("machine.switch_ns", switch_ns, "ns");
  res.Add("machine.transfer_over_switch", host.op_ns[kYield] / switch_ns, "ratio");

  auto step = [&](Op op, int Steps::*which) -> const StepTracer::Step& {
    const Traced& t = traced.traced[static_cast<std::size_t>(op * kModels)];
    return t.tracer->step(t.steps.*which);
  };
  res.Add("task.syscall.span_ns", PerCall(step(kSyscall, &Steps::stub), false), "ns");
  res.Add("task.syscall.sim_cycles", PerCall(step(kSyscall, &Steps::stub), true), "cycles");
  res.Add("kern.yield.span_ns", PerCall(step(kYield, &Steps::stub), false), "ns");
  res.Add("kern.yield.sim_cycles", PerCall(step(kYield, &Steps::stub), true), "cycles");
  res.Add("ipc.rpc.span_ns", PerCall(step(kRpc, &Steps::stub), false), "ns");
  res.Add("ipc.rpc.sim_cycles", PerCall(step(kRpc, &Steps::stub), true), "cycles");
  res.Add("ipc.serve.span_ns", PerCall(step(kRpc, &Steps::server_stub), false), "ns");
  res.Add("exc.raise.span_ns", PerCall(step(kExc, &Steps::stub), false), "ns");
  res.Add("exc.raise.sim_cycles", PerCall(step(kExc, &Steps::stub), true), "cycles");
  res.Add("vm.touch.span_ns", PerCall(step(kFault, &Steps::stub), false), "ns");
  res.Add("vm.touch.sim_cycles", PerCall(step(kFault, &Steps::stub), true), "cycles");
  res.Add("vm.alloc.span_ns", PerCall(step(kFault, &Steps::alloc), false), "ns");
  AddClosure(traced, opt, res);

  res.Add("kern.setup.span_s", traced.setup_s, "s");
  res.Add("kern.run.span_s", traced.run_s / static_cast<double>(traced.rounds), "s");
  AddLayerMetrics(traced.mk40, res);
  return res;
}

}  // namespace perfbench
