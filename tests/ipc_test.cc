// Integration tests for mach_msg across the three kernel models.
#include <gtest/gtest.h>

#include <cstring>

#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {
namespace {

struct RpcFixtureState {
  PortId service_port = kInvalidPort;
  PortId reply_port = kInvalidPort;
  int client_iterations = 0;
  int server_handled = 0;
  int client_completed = 0;
  std::uint64_t checksum = 0;
};

// Echo server: receive a request, add one to the payload, reply.
void EchoServer(void* arg) {
  auto* st = static_cast<RpcFixtureState*>(arg);
  UserMessage msg;
  // Prime: receive the first request.
  ASSERT_EQ(UserServeOnce(&msg, 0, st->service_port), KernReturn::kSuccess);
  for (;;) {
    std::uint64_t payload;
    std::memcpy(&payload, msg.body, sizeof(payload));
    ++payload;
    ++st->server_handled;
    PortId reply_to = msg.header.reply;
    msg.header.dest = reply_to;
    std::memcpy(msg.body, &payload, sizeof(payload));
    ASSERT_EQ(UserServeOnce(&msg, sizeof(payload), st->service_port), KernReturn::kSuccess);
  }
}

void RpcClient(void* arg) {
  auto* st = static_cast<RpcFixtureState*>(arg);
  UserMessage msg;
  for (int i = 0; i < st->client_iterations; ++i) {
    std::uint64_t payload = static_cast<std::uint64_t>(i);
    msg.header.dest = st->service_port;
    std::memcpy(msg.body, &payload, sizeof(payload));
    ASSERT_EQ(UserRpc(&msg, sizeof(payload), st->reply_port), KernReturn::kSuccess);
    std::uint64_t replied;
    std::memcpy(&replied, msg.body, sizeof(replied));
    EXPECT_EQ(replied, payload + 1);
    st->checksum += replied;
  }
  ++st->client_completed;
}

class IpcModelTest : public testing::TestWithParam<ControlTransferModel> {
 protected:
  KernelConfig Config() {
    KernelConfig config;
    config.model = GetParam();
    return config;
  }
};

TEST_P(IpcModelTest, CrossTaskRpcDeliversInOrder) {
  Kernel kernel(Config());
  Task* client_task = kernel.CreateTask("client");
  Task* server_task = kernel.CreateTask("server");
  RpcFixtureState st;
  st.service_port = kernel.ipc().AllocatePort(server_task);
  st.reply_port = kernel.ipc().AllocatePort(client_task);
  st.client_iterations = 200;
  ThreadOptions daemon;
  daemon.daemon = true;
  kernel.CreateUserThread(server_task, &EchoServer, &st, daemon);
  kernel.CreateUserThread(client_task, &RpcClient, &st);
  kernel.Run();

  EXPECT_EQ(st.client_completed, 1);
  EXPECT_EQ(st.server_handled, 200);
  // sum_{i=1..200} i
  EXPECT_EQ(st.checksum, 200ull * 201 / 2);

  const auto& ipc = kernel.ipc().stats();
  if (kernel.UsesContinuations()) {
    // Figure 2: virtually every RPC leg uses the fast handoff path.
    EXPECT_GT(ipc.fast_rpc_handoffs, 300u);
    EXPECT_GT(kernel.transfer_stats().recognitions, 300u);
    EXPECT_EQ(ipc.queued_sends, 0u);
  }
  if (GetParam() == ControlTransferModel::kMach25) {
    // Mach 2.5 queues every message.
    EXPECT_GT(ipc.queued_sends, 300u);
    EXPECT_EQ(ipc.fast_rpc_handoffs, 0u);
  }
  if (GetParam() == ControlTransferModel::kMK32) {
    // MK32 copies directly but never handoffs.
    EXPECT_GT(ipc.direct_copies, 300u);
    EXPECT_EQ(ipc.fast_rpc_handoffs, 0u);
    EXPECT_EQ(kernel.transfer_stats().stack_handoffs, 0u);
  }
}

struct SendOnlyState {
  PortId port = kInvalidPort;
  int to_send = 0;
  std::uint64_t received_sum = 0;
  int received_count = 0;
};

void SendOnlyProducer(void* arg) {
  auto* st = static_cast<SendOnlyState*>(arg);
  UserMessage msg;
  for (int i = 1; i <= st->to_send; ++i) {
    std::uint64_t payload = static_cast<std::uint64_t>(i);
    msg.header.dest = st->port;
    msg.header.reply = kInvalidPort;
    std::memcpy(msg.body, &payload, sizeof(payload));
    ASSERT_EQ(UserMachMsg(&msg, kMsgSendOpt, sizeof(payload), 0, kInvalidPort),
              KernReturn::kSuccess);
  }
}

void SendOnlyConsumer(void* arg) {
  auto* st = static_cast<SendOnlyState*>(arg);
  UserMessage msg;
  for (int i = 0; i < st->to_send; ++i) {
    ASSERT_EQ(UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, st->port),
              KernReturn::kSuccess);
    std::uint64_t payload;
    std::memcpy(&payload, msg.body, sizeof(payload));
    st->received_sum += payload;
    ++st->received_count;
  }
}

TEST_P(IpcModelTest, SendOnlyMessagesAllArriveExactlyOnce) {
  Kernel kernel(Config());
  Task* task = kernel.CreateTask("t");
  SendOnlyState st;
  st.port = kernel.ipc().AllocatePort(task);
  st.to_send = 300;
  kernel.CreateUserThread(task, &SendOnlyProducer, &st);
  kernel.CreateUserThread(task, &SendOnlyConsumer, &st);
  kernel.Run();
  EXPECT_EQ(st.received_count, 300);
  EXPECT_EQ(st.received_sum, 300ull * 301 / 2);
}

struct TooLargeState {
  PortId port = kInvalidPort;
  KernReturn rcv_result = KernReturn::kSuccess;
};

void SmallBufferReceiver(void* arg) {
  auto* st = static_cast<TooLargeState*>(arg);
  UserMessage msg;
  // Only accept 16 bytes; the 512-byte message must fail the receive.
  st->rcv_result = UserMachMsg(&msg, kMsgRcvOpt, 0, 16, st->port);
}

void BigSender(void* arg) {
  auto* st = static_cast<TooLargeState*>(arg);
  UserMessage msg;
  msg.header.dest = st->port;
  ASSERT_EQ(UserMachMsg(&msg, kMsgSendOpt, 512, 0, kInvalidPort), KernReturn::kSuccess);
}

TEST_P(IpcModelTest, ReceiverLimitViolationFailsReceive) {
  Kernel kernel(Config());
  Task* task = kernel.CreateTask("t");
  TooLargeState st;
  st.port = kernel.ipc().AllocatePort(task);
  kernel.CreateUserThread(task, &SmallBufferReceiver, &st);
  kernel.CreateUserThread(task, &BigSender, &st);
  kernel.Run();
  EXPECT_EQ(st.rcv_result, KernReturn::kRcvTooLarge);
  EXPECT_GE(kernel.ipc().stats().rcv_too_large, 1u);
}

TEST_P(IpcModelTest, SendToInvalidPortFails) {
  Kernel kernel(Config());
  Task* task = kernel.CreateTask("t");
  static KernReturn result;
  result = KernReturn::kSuccess;
  kernel.CreateUserThread(
      task,
      [](void*) {
        UserMessage msg;
        msg.header.dest = 9999;
        result = UserMachMsg(&msg, kMsgSendOpt, 8, 0, kInvalidPort);
      },
      nullptr);
  kernel.Run();
  EXPECT_EQ(result, KernReturn::kSendInvalidDest);
}

struct StrictState {
  PortId port = kInvalidPort;
  int received = 0;
};

void StrictReceiver(void* arg) {
  auto* st = static_cast<StrictState*>(arg);
  UserMessage msg;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(UserMachMsg(&msg, kMsgRcvOpt | kMsgRcvStrictOpt, 0, kMaxInlineBytes, st->port),
              KernReturn::kSuccess);
    ++st->received;
  }
}

void StrictSender(void* arg) {
  auto* st = static_cast<StrictState*>(arg);
  UserMessage msg;
  for (int i = 0; i < 10; ++i) {
    msg.header.dest = st->port;
    ASSERT_EQ(UserMachMsg(&msg, kMsgSendOpt, 64, 0, kInvalidPort), KernReturn::kSuccess);
    UserYield();
  }
}

TEST_P(IpcModelTest, StrictReceiversUseSlowContinuation) {
  Kernel kernel(Config());
  Task* task = kernel.CreateTask("t");
  StrictState st;
  st.port = kernel.ipc().AllocatePort(task);
  kernel.CreateUserThread(task, &StrictReceiver, &st);
  kernel.CreateUserThread(task, &StrictSender, &st);
  kernel.Run();
  EXPECT_EQ(st.received, 10);
  if (kernel.UsesContinuations()) {
    // Strict receives block with the slow continuation, so any that were
    // woken generically completed through it.
    EXPECT_GT(kernel.ipc().stats().slow_continuations, 0u);
  }
}

struct QueueFullState {
  PortId port = kInvalidPort;
  int to_send = 0;
  int sent = 0;
  int received = 0;
};

void FloodSender(void* arg) {
  auto* st = static_cast<QueueFullState*>(arg);
  UserMessage msg;
  for (int i = 0; i < st->to_send; ++i) {
    msg.header.dest = st->port;
    ASSERT_EQ(UserMachMsg(&msg, kMsgSendOpt, 8, 0, kInvalidPort), KernReturn::kSuccess);
    ++st->sent;
  }
}

void SlowDrainer(void* arg) {
  auto* st = static_cast<QueueFullState*>(arg);
  UserMessage msg;
  // Let the sender run first so the queue fills.
  UserYield();
  for (int i = 0; i < st->to_send; ++i) {
    ASSERT_EQ(UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, st->port),
              KernReturn::kSuccess);
    ++st->received;
  }
}

TEST_P(IpcModelTest, FullQueueBlocksSenderUntilDrained) {
  Kernel kernel(Config());
  Task* task = kernel.CreateTask("t");
  QueueFullState st;
  st.port = kernel.ipc().AllocatePort(task);
  st.to_send = 200;  // Default qlimit is 64: the sender must block.
  kernel.CreateUserThread(task, &FloodSender, &st);
  kernel.CreateUserThread(task, &SlowDrainer, &st);
  kernel.Run();
  EXPECT_EQ(st.sent, 200);
  EXPECT_EQ(st.received, 200);
  EXPECT_GT(kernel.ipc().stats().send_full_blocks, 0u);
  // Queue-full blocks never discard the stack (process model), in every
  // kernel.
  const auto& row =
      kernel.transfer_stats().by_reason[static_cast<int>(BlockReason::kMsgSend)];
  EXPECT_GT(row.blocks, 0u);
  EXPECT_EQ(row.discards, 0u);
}

// --- Generation-tagged port namespace ------------------------------------

TEST(PortGenerationTest, StaleNameMissesAfterSlotReuse) {
  KernelConfig config;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  IpcSpace& ipc = kernel.ipc();

  PortId stale = ipc.AllocatePort(task);
  ASSERT_NE(ipc.Lookup(stale), nullptr);
  ipc.DestroyPort(stale);
  EXPECT_EQ(ipc.Lookup(stale), nullptr);

  // The slot is reused under a new generation: the fresh name resolves, the
  // stale one still misses instead of aliasing the new port.
  PortId fresh = ipc.AllocatePort(task);
  ASSERT_NE(ipc.Lookup(fresh), nullptr);
  EXPECT_NE(fresh, stale);
  EXPECT_EQ(ipc.Lookup(stale), nullptr);
}

TEST(PortGenerationTest, SendToStaleNameFailsInvalidDest) {
  KernelConfig config;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  static PortId stale_name;
  static PortId fresh_name;
  static KernReturn send_result;
  stale_name = kernel.ipc().AllocatePort(task);
  kernel.ipc().DestroyPort(stale_name);
  fresh_name = kernel.ipc().AllocatePort(task);  // Reuses the slot.
  kernel.CreateUserThread(
      task,
      [](void*) {
        UserMessage msg;
        msg.header.dest = stale_name;
        send_result = UserMachMsg(&msg, kMsgSendOpt, 8, 0, kInvalidPort);
      },
      nullptr);
  kernel.Run();
  EXPECT_EQ(send_result, KernReturn::kSendInvalidDest);
  // The reusing port never saw the stale send.
  Port* fresh = kernel.ipc().Lookup(fresh_name);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->messages.Size(), 0u);
}

TEST(PortGenerationTest, PortChurnKeepsTheTableBounded) {
  KernelConfig config;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  IpcSpace& ipc = kernel.ipc();

  // Allocate/destroy churn: with generations the freelist recycles slots,
  // so the table stops growing after the first round.
  constexpr int kLive = 8;
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    PortId ids[kLive];
    for (int i = 0; i < kLive; ++i) {
      ids[i] = ipc.AllocatePort(task);
    }
    for (int i = 0; i < kLive; ++i) {
      ipc.DestroyPort(ids[i]);
    }
  }
  EXPECT_LE(ipc.port_table_size(), kLive);
  EXPECT_EQ(ipc.port_slots_free(), ipc.port_table_size());
}

TEST(PortGenerationTest, DestroyTaskPortsRecyclesEverySlot) {
  KernelConfig config;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("doomed");
  IpcSpace& ipc = kernel.ipc();

  for (int i = 0; i < 16; ++i) {
    ipc.AllocatePort(task);
  }
  std::size_t table = ipc.port_table_size();
  ipc.DestroyTaskPorts(task);
  EXPECT_EQ(ipc.port_table_size(), table);  // Slots retained...
  EXPECT_EQ(ipc.port_slots_free(), table);  // ...but all back on the freelist.
}

INSTANTIATE_TEST_SUITE_P(AllModels, IpcModelTest,
                         testing::Values(ControlTransferModel::kMach25,
                                         ControlTransferModel::kMK32,
                                         ControlTransferModel::kMK40),
                         [](const testing::TestParamInfo<ControlTransferModel>& info) {
                           return std::string(ModelName(info.param) == std::string("Mach 2.5")
                                                  ? "Mach25"
                                                  : ModelName(info.param));
                         });

}  // namespace
}  // namespace mkc
