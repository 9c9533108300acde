// Reproduces Table 3: "RPC and Exception Times" — round-trip latency of a
// null cross-address-space RPC and of user-level exception handling, on all
// three kernel models.
//
// Reports simulated microseconds per model from the DS3100-calibrated cycle
// model (machine/cycle_model.h): the apples-to-apples comparison with the
// paper's Table 3, since it prices register traffic, queueing and scheduling
// at 1991 relative costs. Pinned, calibrated host ns for the same operations
// come from perfbench's `transfer` workload (EXPERIMENTS.md).
// The reproduced claim is the SHAPE: MK40 beats MK32 by a modest margin on
// RPC (paper: 14%) and beats both by 2-3x on exceptions.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/exc/exception.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {
namespace {

struct RpcBenchState {
  PortId service_port = kInvalidPort;
  PortId reply_port = kInvalidPort;
  int iterations = 0;
};

void NullRpcServer(void* arg) {
  auto* st = static_cast<RpcBenchState*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, st->service_port) != KernReturn::kSuccess) {
    return;
  }
  for (;;) {
    msg.header.dest = msg.header.reply;
    if (UserServeOnce(&msg, 8, st->service_port) != KernReturn::kSuccess) {
      return;
    }
  }
}

void NullRpcClient(void* arg) {
  auto* st = static_cast<RpcBenchState*>(arg);
  UserMessage msg;
  for (int i = 0; i < st->iterations; ++i) {
    msg.header.dest = st->service_port;
    UserRpc(&msg, 8, st->reply_port);
  }
}

// Simulated microseconds per null-RPC round trip (client in one task, server
// in another).
double MeasureRpc(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* client = kernel.CreateTask("client");
  Task* server = kernel.CreateTask("server");
  RpcBenchState st;
  st.service_port = kernel.ipc().AllocatePort(server);
  st.reply_port = kernel.ipc().AllocatePort(client);
  st.iterations = iterations;
  ThreadOptions daemon;
  daemon.daemon = true;
  kernel.CreateUserThread(server, &NullRpcServer, &st, daemon);
  kernel.CreateUserThread(client, &NullRpcClient, &st);
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  return CyclesToMicros(kernel.clock().Now() - t0) / iterations;
}

struct ExcBenchState {
  PortId exc_port = kInvalidPort;
  int iterations = 0;
};

void ExcBenchServer(void* arg) {
  auto* st = static_cast<ExcBenchState*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, st->exc_port) != KernReturn::kSuccess) {
    return;
  }
  for (;;) {
    // "it does not examine or change the state of the faulting thread"
    ExcRequestBody req;
    std::memcpy(&req, msg.body, sizeof(req));
    ExcReplyBody reply;
    reply.handled = 1;
    msg.header.dest = req.reply_port;
    msg.header.msg_id = kExcReplyMsgId;
    std::memcpy(msg.body, &reply, sizeof(reply));
    if (UserServeOnce(&msg, sizeof(reply), st->exc_port) != KernReturn::kSuccess) {
      return;
    }
  }
}

void ExcBenchFaulter(void* arg) {
  auto* st = static_cast<ExcBenchState*>(arg);
  UserSetExceptionPort(st->exc_port);
  for (int i = 0; i < st->iterations; ++i) {
    UserRaiseException(kExcSoftware);
  }
}

// Simulated microseconds per exception round trip (server in the faulting
// thread's own address space, as in the paper's test).
double MeasureException(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("task");
  ExcBenchState st;
  st.exc_port = kernel.ipc().AllocatePort(task);
  st.iterations = iterations;
  ThreadOptions daemon;
  daemon.daemon = true;
  kernel.CreateUserThread(task, &ExcBenchServer, &st, daemon);
  kernel.CreateUserThread(task, &ExcBenchFaulter, &st);
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  return CyclesToMicros(kernel.clock().Now() - t0) / iterations;
}

int Main(int argc, char** argv) {
  int iterations = 100000 * ScaleFromArgs(argc, argv, 1);

  constexpr ControlTransferModel kModels[] = {
      ControlTransferModel::kMK40,
      ControlTransferModel::kMK32,
      ControlTransferModel::kMach25,
  };

  double rpc[3];
  double exc[3];
  for (int i = 0; i < 3; ++i) {
    rpc[i] = MeasureRpc(kModels[i], iterations);
    exc[i] = MeasureException(kModels[i], iterations);
  }

  std::printf("Table 3: RPC and Exception Times (simulated us, DS3100 cycle model)\n");
  std::printf("%d iterations per cell. Paper values measured on a real DS3100.\n\n",
              iterations);
  std::printf("%-12s %9s %9s %9s   | paper(us) %5s %5s %5s\n", "", "MK40", "MK32",
              "Mach2.5", "MK40", "MK32", "M2.5");
  std::printf("%-12s %8.1f %9.1f %9.1f   | %14.0f %5.0f %5.0f\n", "null RPC",
              rpc[0], rpc[1], rpc[2], 95.0, 110.0, 185.0);
  std::printf("%-12s %8.1f %9.1f %9.1f   | %14.0f %5.0f %5.0f\n", "exception",
              exc[0], exc[1], exc[2], 135.0, 425.0, 380.0);

  std::printf("\nShape checks, simulated time (paper in brackets):\n");
  std::printf("  RPC: MK32/MK40 = %.2fx [1.16x], Mach2.5/MK40 = %.2fx [1.95x]\n",
              rpc[1] / rpc[0], rpc[2] / rpc[0]);
  std::printf("  exception: MK32/MK40 = %.2fx [3.15x], Mach2.5/MK40 = %.2fx [2.81x]\n",
              exc[1] / exc[0], exc[2] / exc[0]);

  BenchJsonBuilder json("table3_latency");
  json.Config("iterations", iterations);
  const char* model_names[3] = {"mk40", "mk32", "mach25"};
  for (int i = 0; i < 3; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"rpc_sim_us\":%.4f,\"exception_sim_us\":%.4f}",
                  rpc[i], exc[i]);
    json.MetricJson(model_names[i], buf);
  }
  json.Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
