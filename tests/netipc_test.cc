// netipc tests: cross-node RPC correctness (lossless and lossy links),
// Table-5 stack accounting for the blocked protocol threads, proxy-port GC
// through the DestroyPort death hook, timed receives resuming via
// continuation, cluster determinism, corrupted wire headers, and the
// network's recycled packet buffers.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/core/trace.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/ipc/ool.h"
#include "src/ipc/wire.h"
#include "src/kern/kernel.h"
#include "src/kern/thread.h"
#include "src/net/cluster.h"
#include "src/net/link.h"
#include "src/net/netipc.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/task/task.h"
#include "src/task/usermode.h"
#include "src/vm/vm_system.h"

namespace mkc {
namespace {

ClusterRpcParams SmallParams() {
  ClusterRpcParams p;
  p.clients = 2;
  p.requests_per_client = 5;
  return p;
}

// --- Correctness ------------------------------------------------------------

TEST(NetIpcTest, CrossNodeRpcCompletes) {
  KernelConfig config;
  Cluster cluster(config, 2);
  ClusterReport r = RunClusterRpcWorkload(cluster, SmallParams());
  EXPECT_EQ(r.rpcs_ok, 10u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  EXPECT_EQ(r.net.msgs_in, 20u);  // 10 requests + 10 replies crossed the wire.
  // The base retransmit deadline covers a round trip: a lossless link never
  // retransmits.
  EXPECT_EQ(r.net.retransmits, 0u);
  EXPECT_EQ(r.net.give_ups, 0u);
}

TEST(NetIpcTest, FourNodesRoundRobin) {
  KernelConfig config;
  Cluster cluster(config, 4);
  ClusterRpcParams p;
  p.clients = 3;  // One client per server node.
  p.requests_per_client = 4;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  EXPECT_EQ(r.rpcs_ok, 12u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  EXPECT_EQ(r.net.give_ups, 0u);
}

TEST(NetIpcTest, LossyLinkRetransmitsAndCompletes) {
  KernelConfig config;
  LinkConfig link;
  link.drop_per_mille = 100;  // A brutal 10% loss rate.
  Cluster cluster(config, 2, link);
  ClusterRpcParams p;
  p.clients = 4;
  p.requests_per_client = 25;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  // Every RPC still completes: loss costs retransmits, never answers.
  EXPECT_EQ(r.rpcs_ok, 100u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  EXPECT_GT(r.net.drops, 0u);
  EXPECT_GT(r.net.retransmits, 0u);
  EXPECT_EQ(r.net.give_ups, 0u);
}

TEST(NetIpcTest, DuplicatingLinkDeliversEachMessageOnce) {
  KernelConfig config;
  LinkConfig link;
  link.dup_per_mille = 200;
  Cluster cluster(config, 2, link);
  ClusterReport r = RunClusterRpcWorkload(cluster, SmallParams());
  EXPECT_EQ(r.rpcs_ok, 10u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  EXPECT_GT(r.net.dups, 0u);
  // Duplicated DATA is recognized by sequence number and only re-acked.
  EXPECT_EQ(r.net.msgs_in, 20u);
}

// --- Table-5 stack accounting ----------------------------------------------

TEST(NetIpcTest, BlockedProtocolThreadsHoldNoStacks) {
  KernelConfig config;  // MK40: blocks with continuations.
  Cluster cluster(config, 2);
  RunClusterRpcWorkload(cluster, SmallParams());
  for (int i = 0; i < 2; ++i) {
    Thread* out = cluster.netipc(i).out_thread();
    Thread* engine = cluster.netipc(i).engine_thread();
    // Both protocol threads idle in their receive waits...
    EXPECT_EQ(out->state, ThreadState::kWaiting);
    EXPECT_EQ(engine->state, ThreadState::kWaiting);
    // ...with no kernel stack (§3.3 — the paper's netmsgserver argument)...
    EXPECT_EQ(out->kernel_stack, nullptr);
    EXPECT_EQ(engine->kernel_stack, nullptr);
    // ...and their own protocol continuations, which carry their own
    // specialized entries in the recognition table (wakeup absorption) —
    // distinct from mach_msg_continue's handoff entry.
    EXPECT_EQ(out->continuation, &NetIpcRecvContinue);
    EXPECT_EQ(engine->continuation, &NetIpcAckContinue);
  }
}

TEST(NetIpcTest, ProcessModelProtocolThreadsKeepStacks) {
  KernelConfig config;
  config.model = ControlTransferModel::kMach25;
  Cluster cluster(config, 2);
  ClusterReport r = RunClusterRpcWorkload(cluster, SmallParams());
  EXPECT_EQ(r.rpcs_ok, 10u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  for (int i = 0; i < 2; ++i) {
    // The process model blocks by saving context: the stacks stay bound.
    EXPECT_NE(cluster.netipc(i).out_thread()->kernel_stack, nullptr);
    EXPECT_NE(cluster.netipc(i).engine_thread()->kernel_stack, nullptr);
  }
}

// --- Proxy lifecycle --------------------------------------------------------

TEST(NetIpcTest, BindProxyDedupsAndGcsOnLocalDeath) {
  KernelConfig config;
  Cluster cluster(config, 2);
  Task* task = cluster.node(1).CreateTask("svc");
  PortId svc = cluster.node(1).ipc().AllocatePort(task);

  PortId proxy = cluster.netipc(0).BindProxy(1, svc);
  EXPECT_EQ(cluster.netipc(0).proxy_count(), 1u);
  // Rebinding the same remote target reuses the proxy.
  EXPECT_EQ(cluster.netipc(0).BindProxy(1, svc), proxy);
  EXPECT_EQ(cluster.netipc(0).proxy_count(), 1u);

  // Destroying the proxy unbinds it through the port-death hook...
  cluster.node(0).ipc().DestroyPort(proxy);
  EXPECT_EQ(cluster.netipc(0).proxy_count(), 0u);
  // ...and a later bind mints a fresh proxy.
  PortId again = cluster.netipc(0).BindProxy(1, svc);
  EXPECT_NE(again, proxy);
  EXPECT_EQ(cluster.netipc(0).proxy_count(), 1u);
}

struct OneShotServerArgs {
  PortId port = kInvalidPort;
};

void OneShotServer(void* arg) {
  auto* s = static_cast<OneShotServerArgs*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, s->port) != KernReturn::kSuccess) {
    return;
  }
  msg.header.dest = msg.header.reply;
  UserServeOnce(&msg, 16, s->port);  // Reply, then park (daemon thread).
}

struct OneRpcArgs {
  PortId proxy = kInvalidPort;
  PortId reply = kInvalidPort;
  KernReturn result = KernReturn::kFailure;
};

void OneRpcClient(void* arg) {
  auto* a = static_cast<OneRpcArgs*>(arg);
  UserMessage msg;
  msg.header.dest = a->proxy;
  a->result = UserRpc(&msg, 16, a->reply);
}

TEST(NetIpcTest, PortDeathGcsRemoteReplyProxy) {
  KernelConfig config;
  Cluster cluster(config, 2);

  OneShotServerArgs server;
  Task* stask = cluster.node(1).CreateTask("svc");
  server.port = cluster.node(1).ipc().AllocatePort(stask);
  ThreadOptions daemon;
  daemon.daemon = true;
  daemon.priority = 20;
  cluster.node(1).CreateUserThread(stask, &OneShotServer, &server, daemon);

  OneRpcArgs rpc;
  Task* ctask = cluster.node(0).CreateTask("cli");
  rpc.proxy = cluster.netipc(0).BindProxy(1, server.port);
  rpc.reply = cluster.node(0).ipc().AllocatePort(ctask);
  cluster.node(0).CreateUserThread(ctask, &OneRpcClient, &rpc);

  Cluster* c = &cluster;
  c->Run();
  c->Drain();
  ASSERT_EQ(rpc.result, KernReturn::kSuccess);
  // The reply came back through a proxy node 1 bound for node 0's reply port.
  EXPECT_EQ(cluster.netipc(1).proxy_count(), 1u);
  EXPECT_EQ(cluster.netipc(1).stats().proxy_gcs, 0u);

  // Killing the exported reply port broadcasts PORT_DEATH; the remote proxy
  // entry is reclaimed once the packet is delivered.
  cluster.node(0).ipc().DestroyPort(rpc.reply);
  c->Drain();
  EXPECT_EQ(cluster.netipc(1).proxy_count(), 0u);
  EXPECT_EQ(cluster.netipc(1).stats().proxy_gcs, 1u);
}

// --- Timed receives (the retransmit engine's blocking primitive) ------------

struct TimedRecvEnv {
  PortId port = kInvalidPort;
  Thread* receiver = nullptr;
  ThreadState observed_state = ThreadState::kEmbryo;
  KernelStack* observed_stack = nullptr;
  Continuation observed_cont = nullptr;
  bool observed = false;
  KernReturn result = KernReturn::kSuccess;
  bool done = false;
};

TimedRecvEnv* g_timed = nullptr;

void TimedReceiver(void*) {
  UserMessage msg;
  g_timed->result =
      UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, g_timed->port, 5000);
  g_timed->done = true;
}

void TimedWatcher(void*) {
  // Runs while the receiver is parked in its timed receive.
  g_timed->observed_state = g_timed->receiver->state;
  g_timed->observed_stack = g_timed->receiver->kernel_stack;
  g_timed->observed_cont = g_timed->receiver->continuation;
  g_timed->observed = true;
  UserWork(20000);  // Sail past the 5000-tick deadline; the timer fires here.
}

TEST(NetIpcTest, TimedOutReceiveResumesViaContinuation) {
  KernelConfig config;  // MK40.
  TimedRecvEnv env;
  g_timed = &env;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("timed");
  env.port = kernel.ipc().AllocatePort(task);
  ThreadOptions high;
  high.priority = 28;  // Blocks before the watcher looks.
  env.receiver = kernel.CreateUserThread(task, &TimedReceiver, nullptr, high);
  kernel.CreateUserThread(task, &TimedWatcher, nullptr);
  kernel.Run();
  g_timed = nullptr;

  ASSERT_TRUE(env.observed);
  ASSERT_TRUE(env.done);
  // While parked the receiver held no stack — only its continuation — and
  // the timeout resumed it through that continuation, not a saved context.
  EXPECT_EQ(env.observed_state, ThreadState::kWaiting);
  EXPECT_EQ(env.observed_stack, nullptr);
  EXPECT_EQ(env.observed_cont, &MachMsgContinue);
  EXPECT_EQ(env.result, KernReturn::kRcvTimedOut);
}

// A receive that times out and is retried must stay on the caller's causal
// chain: when the request finally lands, the server adopts the client's RPC
// span — the same span the client's UserRpc began — with no second span
// created by the retry.
struct TimeoutSpanEnv {
  PortId service = kInvalidPort;
  PortId reply = kInvalidPort;
  Thread* server = nullptr;
  KernReturn first_result = KernReturn::kSuccess;
  std::uint32_t server_span = 0;
  bool client_done = false;
};

TimeoutSpanEnv* g_tspan = nullptr;

void TimeoutThenServe(void*) {
  UserMessage msg;
  // First receive deliberately times out — the client sends late.
  g_tspan->first_result =
      UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, g_tspan->service, 5000);
  // Retry the same endpoint without a deadline; the request's delivery
  // adopts this thread into the client's span.
  ASSERT_EQ(UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, g_tspan->service),
            KernReturn::kSuccess);
  g_tspan->server_span = g_tspan->server->span_id;
  msg.header.dest = msg.header.reply;
  ASSERT_EQ(UserMachMsg(&msg, kMsgSendOpt, 8, 0, kInvalidPort), KernReturn::kSuccess);
}

void LateRpcClient(void*) {
  UserWork(20000);  // Sail past the server's 5000-tick receive deadline.
  UserMessage msg;
  msg.header.dest = g_tspan->service;
  ASSERT_EQ(UserRpc(&msg, 8, g_tspan->reply), KernReturn::kSuccess);
  g_tspan->client_done = true;
}

TEST(NetIpcTest, SpanAdoptionSurvivesReceiveTimeoutRetry) {
  KernelConfig config;  // MK40.
  config.trace_capacity = 8192;
  TimeoutSpanEnv env;
  g_tspan = &env;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("tspan");
  env.service = kernel.ipc().AllocatePort(task);
  env.reply = kernel.ipc().AllocatePort(task);
  ThreadOptions high;
  high.priority = 28;  // The server parks in its timed receive first.
  high.daemon = true;
  env.server = kernel.CreateUserThread(task, &TimeoutThenServe, nullptr, high);
  kernel.CreateUserThread(task, &LateRpcClient, nullptr);
  kernel.Run();
  g_tspan = nullptr;

  // The timeout really happened, and the RPC still completed.
  EXPECT_EQ(env.first_result, KernReturn::kRcvTimedOut);
  ASSERT_TRUE(env.client_done);

  // Exactly one RPC span was begun (the retry created no fresh chain) and
  // the server served the request *inside* it.
  std::uint32_t rpc_span = 0;
  int rpc_spans_begun = 0;
  kernel.trace().ForEach([&](const TraceRecord& rec) {
    if (rec.event == TraceEvent::kSpanBegin &&
        rec.aux == static_cast<std::uint32_t>(SpanKind::kRpc)) {
      ++rpc_spans_begun;
      rpc_span = rec.span;
    }
  });
  EXPECT_EQ(rpc_spans_begun, 1);
  ASSERT_NE(rpc_span, 0u);
  EXPECT_EQ(env.server_span, rpc_span);
}

// --- Causality and determinism ----------------------------------------------

TEST(NetIpcTest, RpcSpanChainsAcrossNodes) {
  KernelConfig config;
  config.trace_capacity = 8192;
  Cluster cluster(config, 2);
  ClusterRpcParams p;
  p.clients = 1;
  p.requests_per_client = 1;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  ASSERT_EQ(r.rpcs_ok, 1u);

  std::set<std::uint32_t> tx0, rx1;
  cluster.node(0).trace().ForEach([&](const TraceRecord& rec) {
    if (rec.event == TraceEvent::kNetTx && rec.span != 0) {
      tx0.insert(rec.span);
    }
  });
  cluster.node(1).trace().ForEach([&](const TraceRecord& rec) {
    if (rec.event == TraceEvent::kNetRx && rec.span != 0) {
      rx1.insert(rec.span);
    }
  });
  // The request's span id leaves node 0 and shows up verbatim on node 1:
  // one causal chain across the wire.
  ASSERT_FALSE(tx0.empty());
  bool shared = false;
  for (std::uint32_t s : tx0) {
    if (rx1.count(s) > 0) {
      shared = true;
    }
  }
  EXPECT_TRUE(shared);
}

// --- v2 selective repeat ----------------------------------------------------

TEST(NetIpcTest, SteadyStateRpcPiggybacksAcks) {
  KernelConfig config;
  Cluster cluster(config, 2);
  ClusterRpcParams p;
  p.clients = 4;
  p.requests_per_client = 25;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  ASSERT_EQ(r.rpcs_ok, 100u);
  // In steady-state RPC every ack rides a reply DATA packet; standalone
  // ACKs only mop up the tail when traffic pauses.
  EXPECT_GT(r.net.acks_piggybacked, 100u);
  EXPECT_LT(r.net.acks_tx, 10u);
  // Goodput accounting: payload bytes are a strict subset of wire bytes.
  EXPECT_GT(r.net.bytes_goodput, 0u);
  EXPECT_LT(r.net.bytes_goodput, r.net.bytes_tx);
}

TEST(NetIpcTest, ReorderingLinkBuffersOutOfOrderDeliversInOrder) {
  KernelConfig config;
  LinkConfig link;
  link.reorder_per_mille = 300;
  Cluster cluster(config, 2, link);
  ClusterRpcParams p;
  p.clients = 4;
  p.requests_per_client = 25;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  // Reordering costs buffering, never answers: every RPC completes and
  // every message is handed to mach_msg exactly once, in channel order.
  EXPECT_EQ(r.rpcs_ok, 100u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  EXPECT_EQ(r.net.msgs_in, 200u);
  EXPECT_GT(r.net.reorders, 0u);
  EXPECT_GT(r.net.rx_ooo_buffered, 0u);
  EXPECT_EQ(r.net.give_ups, 0u);
}

TEST(NetIpcTest, SackHolesTriggerFastRetransmit) {
  KernelConfig config;
  LinkConfig link;
  link.drop_per_mille = 50;
  Cluster cluster(config, 2, link);
  ClusterRpcParams p;
  p.clients = 4;
  p.requests_per_client = 25;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  EXPECT_EQ(r.rpcs_ok, 100u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  // A SACK bitmap acking packets above a hole is retransmit evidence the
  // go-back-N engine never had: the hole resends before its timer fires.
  EXPECT_GT(r.net.fast_retransmits, 0u);
  EXPECT_EQ(r.net.give_ups, 0u);
}

TEST(NetIpcTest, ResponseBurstsCoalesceIntoFrames) {
  KernelConfig config;
  LinkConfig link;
  link.reorder_per_mille = 300;
  Cluster cluster(config, 2, link);
  ClusterRpcParams p;
  p.clients = 4;
  p.requests_per_client = 50;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  EXPECT_EQ(r.rpcs_ok, 200u);
  // One SACK exposing several holes answers with several small DATA
  // retransmits to the same peer — packed into one FRAME_BATCH.
  EXPECT_GT(r.net.frames_coalesced, 0u);
}

TEST(NetIpcTest, ReorderedLossyClusterRunsAreDeterministic) {
  auto run = [] {
    KernelConfig config;
    LinkConfig link;
    link.drop_per_mille = 20;
    link.reorder_per_mille = 100;
    Cluster cluster(config, 4, link);
    ClusterRpcParams p;
    p.clients = 4;
    p.requests_per_client = 10;
    RunClusterRpcWorkload(cluster, p);
    std::string dump;
    for (int i = 0; i < 4; ++i) {
      dump += cluster.node(i).metrics().DumpJsonString();
      dump += '\n';
    }
    return dump;
  };
  std::string first = run();
  std::string second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(NetIpcTest, RetransmitBackoffIsCappedAndGivesUp) {
  KernelConfig config;
  LinkConfig link;
  link.drop_per_mille = 1000;  // Total blackout: nothing ever arrives.
  Cluster cluster(config, 2, link);
  ClusterRpcParams p;
  p.clients = 1;
  p.requests_per_client = 1;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  // The send exhausts its attempt budget and fails the RPC dead-name style.
  EXPECT_EQ(r.rpcs_ok, 0u);
  EXPECT_EQ(r.rpcs_failed, 1u);
  EXPECT_GT(r.net.give_ups, 0u);
  EXPECT_EQ(r.net.retransmits, kNetMaxSendAttempts - 1);
  // The backoff shift is capped: the full budget of a single entry is
  // rto * (2^0 + ... + 2^kNetMaxBackoffShift) ticks. A run that exceeds a
  // small multiple of that would mean the exponent kept growing.
  const Ticks budget = kNetRetransmitBase * ((2u << kNetMaxBackoffShift) - 1);
  EXPECT_LT(r.virtual_time, 2 * budget);
}

// --- v2 lazy-pull OOL -------------------------------------------------------

TEST(NetIpcTest, TouchedOolPullsAcrossTheWire) {
  KernelConfig config;
  Cluster cluster(config, 2);
  ClusterRpcParams p;
  p.clients = 2;
  p.requests_per_client = 5;
  p.ool_bytes = 8192;
  p.ool_every = 1;  // Every request carries an 8 KiB region.
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  EXPECT_EQ(r.rpcs_ok, 10u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  // The server's first touch of each region drives one pull round trip;
  // every payload byte crosses the wire exactly when demanded.
  EXPECT_EQ(r.net.ool_pulls, 10u);
  EXPECT_EQ(r.net.ool_pushes, 10u);
  EXPECT_EQ(r.net.ool_bytes_pulled, 10u * 8192u);
  EXPECT_EQ(r.net.ool_pull_fails, 0u);
}

TEST(NetIpcTest, UntouchedOolShipsNoPayloadBytes) {
  auto run = [](bool touch) {
    KernelConfig config;
    Cluster cluster(config, 2);
    ClusterRpcParams p;
    p.clients = 2;
    p.requests_per_client = 5;
    p.ool_bytes = 8192;
    p.ool_every = 1;
    p.ool_touch = touch;
    return RunClusterRpcWorkload(cluster, p);
  };
  ClusterReport touched = run(true);
  ClusterReport untouched = run(false);
  ASSERT_EQ(untouched.rpcs_ok, 10u);
  // NORMA-style copy avoidance: a region the receiver never references
  // costs descriptor bytes only — no pull, no payload on the wire.
  EXPECT_EQ(untouched.net.ool_pulls, 0u);
  EXPECT_EQ(untouched.net.ool_bytes_pulled, 0u);
  EXPECT_GT(touched.net.bytes_tx, untouched.net.bytes_tx + 10u * 8192u);
}

TEST(NetIpcTest, OolPullSurvivesLoss) {
  KernelConfig config;
  LinkConfig link;
  link.drop_per_mille = 50;
  Cluster cluster(config, 2, link);
  ClusterRpcParams p;
  p.clients = 2;
  p.requests_per_client = 10;
  p.ool_bytes = 4096;
  p.ool_every = 2;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  // Dropped OOL_PULL and OOL_DATA packets retransmit like any sequenced
  // traffic: every touch completes, every RPC answers.
  EXPECT_EQ(r.rpcs_ok, 20u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  EXPECT_EQ(r.net.ool_pulls, 10u);
  EXPECT_EQ(r.net.ool_bytes_pulled, 10u * 4096u);
  EXPECT_EQ(r.net.ool_pull_fails, 0u);
  EXPECT_GT(r.net.retransmits + r.net.fast_retransmits, 0u);
}

struct OolExhaustEnv {
  PortId port = kInvalidPort;
  Network* net = nullptr;
  bool touched = false;  // Must stay false: the touch dead-names instead.
};

void OolExhaustServer(void* arg) {
  auto* e = static_cast<OolExhaustEnv*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, e->port) != KernReturn::kSuccess) {
    return;
  }
  OolDescriptor desc;
  std::memcpy(&desc, msg.body, sizeof(desc));
  // Partition the network before the first touch: the OOL_PULL and all its
  // retransmits are lost, so the pull exhausts its budget.
  e->net->SetDropPerMille(1000);
  UserTouch(desc.addr, /*write=*/false);
  e->touched = true;
}

struct OolOneWayClientArgs {
  PortId proxy = kInvalidPort;
};

void OolOneWayClient(void* arg) {
  auto* a = static_cast<OolOneWayClientArgs*>(arg);
  UserMessage msg;
  msg.header = MessageHeader{};
  msg.header.dest = a->proxy;
  OolDescriptor desc;
  desc.size = 8192;
  desc.addr = UserVmAllocate(desc.size, /*paged=*/false);
  for (VmSize off = 0; off < desc.size; off += kPageSize) {
    UserTouch(desc.addr + off, /*write=*/true);
  }
  std::memcpy(msg.body, &desc, sizeof(desc));
  MarkMessageOol(msg.header);
  UserMachMsg(&msg, kMsgSendOpt | kMsgOolOpt, sizeof(desc), 0, kInvalidPort);
}

TEST(NetIpcTest, ExhaustedOolPullDeadNamesTheToucher) {
  KernelConfig config;
  Cluster cluster(config, 2);

  OolExhaustEnv server;
  server.net = &cluster.network();
  Task* stask = cluster.node(1).CreateTask("svc");
  server.port = cluster.node(1).ipc().AllocatePort(stask);
  cluster.node(1).CreateUserThread(stask, &OolExhaustServer, &server);

  OolOneWayClientArgs client;
  Task* ctask = cluster.node(0).CreateTask("cli");
  client.proxy = cluster.netipc(0).BindProxy(1, server.port);
  cluster.node(0).CreateUserThread(ctask, &OolOneWayClient, &client);

  cluster.Run();
  cluster.Drain();

  // The pull never completed: the import failed, the faulting access raised
  // a bad-access exception (dead-name semantics for memory), and with no
  // exception server the toucher was terminated mid-touch.
  EXPECT_FALSE(server.touched);
  EXPECT_GE(cluster.netipc(1).stats().ool_pull_fails, 1u);
  EXPECT_GE(cluster.node(1).vm().stats().protection_exceptions, 1u);
}

TEST(NetIpcTest, V2LossyOolKeepsProtocolThreadsStackless) {
  KernelConfig config;  // MK40: blocks with continuations.
  LinkConfig link;
  link.drop_per_mille = 50;
  link.reorder_per_mille = 100;
  Cluster cluster(config, 2, link);
  ClusterRpcParams p;
  p.clients = 2;
  p.requests_per_client = 10;
  p.ool_bytes = 4096;
  p.ool_every = 2;
  ClusterReport r = RunClusterRpcWorkload(cluster, p);
  ASSERT_EQ(r.rpcs_ok, 20u);
  // The v2 engine — SACK scans, frame batching, lazy pulls and all — still
  // parks both protocol threads stackless on their continuations (§3.3).
  for (int i = 0; i < 2; ++i) {
    Thread* out = cluster.netipc(i).out_thread();
    Thread* engine = cluster.netipc(i).engine_thread();
    EXPECT_EQ(out->state, ThreadState::kWaiting);
    EXPECT_EQ(engine->state, ThreadState::kWaiting);
    EXPECT_EQ(out->kernel_stack, nullptr);
    EXPECT_EQ(engine->kernel_stack, nullptr);
    EXPECT_EQ(out->continuation, &NetIpcRecvContinue);
    EXPECT_EQ(engine->continuation, &NetIpcAckContinue);
  }
}

TEST(NetIpcTest, LossyClusterRunsAreDeterministic) {
  auto run = [] {
    KernelConfig config;
    LinkConfig link;
    link.drop_per_mille = 20;
    Cluster cluster(config, 3, link);
    ClusterRpcParams p;
    p.clients = 4;
    p.requests_per_client = 10;
    RunClusterRpcWorkload(cluster, p);
    std::string dump;
    for (int i = 0; i < 3; ++i) {
      dump += cluster.node(i).metrics().DumpJsonString();
      dump += '\n';
    }
    return dump;
  };
  std::string first = run();
  std::string second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- Wire robustness and buffer recycling -------------------------------------

// A serialized DATA packet from `src_node` (also its reply node) with
// sequence number `seq`, carrying `body_bytes` of `fill` to `dest`.
std::vector<std::byte> DataPacket(std::uint32_t src_node, std::uint32_t seq, PortId dest,
                                  std::uint32_t body_bytes, std::byte fill) {
  WireHeader wire;
  wire.kind = static_cast<std::uint32_t>(WireKind::kData);
  wire.src_node = src_node;
  wire.reply_node = src_node;
  wire.seq = seq;
  wire.mach.dest = dest;
  wire.mach.size = body_bytes;
  const std::vector<std::byte> body(body_bytes, fill);
  std::vector<std::byte> packet(kWireHeaderBytes + body_bytes);
  const std::uint32_t len =
      WireSerialize(wire, body.data(), body_bytes, packet.data(),
                    static_cast<std::uint32_t>(packet.size()));
  EXPECT_EQ(len, packet.size());
  return packet;
}

bool BodyIs(const KMessage* kmsg, std::uint32_t size, std::byte fill) {
  if (kmsg->header.size != size) {
    return false;
  }
  for (std::uint32_t i = 0; i < size; ++i) {
    if (kmsg->body[i] != fill) {
      return false;
    }
  }
  return true;
}

TEST(NetIpcTest, PacketsWithBadNodeIdsAreDroppedBeforeChannelState) {
  KernelConfig config;
  Cluster cluster(config, 2);
  Kernel& k1 = cluster.node(1);
  const PortId port = k1.ipc().AllocatePort(k1.CreateTask("sink"));
  // Well-formed DATA at the next expected seq, wrong only in a node id: a
  // source outside the cluster, the receiver itself as source, and a reply
  // node outside the cluster. The last packet is valid: the control.
  std::vector<std::vector<std::byte>> packets;
  packets.push_back(DataPacket(7, 1, port, 16, std::byte{1}));
  packets.push_back(DataPacket(1, 1, port, 16, std::byte{2}));
  packets.push_back(DataPacket(0, 1, port, 16, std::byte{3}));
  WireHeader bad_reply;
  std::memcpy(&bad_reply, packets.back().data(), sizeof(bad_reply));
  bad_reply.reply_node = 9;
  bad_reply.mach.reply = port;
  std::memcpy(packets.back().data(), &bad_reply, sizeof(bad_reply));
  packets.push_back(DataPacket(0, 1, port, 16, std::byte{4}));
  k1.events().Post(1000, [&] {
    for (const auto& p : packets) {
      cluster.netipc(1).DeliverWire(p.data(), static_cast<std::uint32_t>(p.size()));
    }
  });
  cluster.Drain();

  const NetStats& st = cluster.netipc(1).stats();
  EXPECT_EQ(st.packets_rx, 4u);  // Counted on arrival, like unparsable ones.
  EXPECT_EQ(st.msgs_in, 1u);     // Only the control got through...
  EXPECT_EQ(st.packets_tx, 1u);  // ...and only it was acked.
  EXPECT_EQ(st.acks_tx, 1u);
  EXPECT_EQ(st.dead_tx + st.rx_dup_data + st.rx_ooo_buffered + st.rx_backpressure, 0u);
  EXPECT_EQ(cluster.netipc(1).proxy_count(), 0u);
  EXPECT_EQ(cluster.netipc(0).stats().packets_rx, 1u);
  Port* p = k1.ipc().Lookup(port);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->messages.Size(), 1u);
  EXPECT_TRUE(BodyIs(p->messages.PeekHead(), 16, std::byte{4}));
}

// Delivered packet buffers are reused: a short packet riding a long one's
// old buffer carries exactly its own bytes, and with duplication on, both
// copies of every packet arrive byte-identical (the duplicate is recognized
// as a resend of the same seq, never mis-parsed).
void ExpectRecycledBuffersCarryExactBytes(std::uint32_t dup_per_mille) {
  KernelConfig config;
  LinkConfig link;
  link.dup_per_mille = dup_per_mille;
  Cluster cluster(config, 2, link);
  Kernel& k1 = cluster.node(1);
  const PortId port = k1.ipc().AllocatePort(k1.CreateTask("sink"));
  const std::vector<std::byte> long_packet = DataPacket(0, 1, port, 900, std::byte{0xAB});
  const std::vector<std::byte> short_packet = DataPacket(0, 2, port, 8, std::byte{0x5C});
  auto send = [&](const std::vector<std::byte>& packet) {
    cluster.network().Transmit(cluster.netipc(0), cluster.netipc(1), packet.data(),
                               static_cast<std::uint32_t>(packet.size()));
  };
  // The short packet leaves long after the long one (and its ack) landed,
  // so it takes a recycled buffer.
  cluster.node(0).events().Post(1000, [&] { send(long_packet); });
  cluster.node(0).events().Post(200000, [&] { send(short_packet); });
  cluster.Drain();

  const std::uint64_t copies = dup_per_mille == 1000 ? 2 : 1;
  const NetStats& st = cluster.netipc(1).stats();
  EXPECT_EQ(st.packets_rx, 2 * copies);
  EXPECT_EQ(st.bytes_rx, copies * (long_packet.size() + short_packet.size()));
  EXPECT_EQ(st.msgs_in, 2u);
  EXPECT_EQ(st.rx_dup_data, 2 * (copies - 1));
  Port* p = k1.ipc().Lookup(port);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->messages.Size(), 2u);
  KMessage* first = p->messages.DequeueHead();
  EXPECT_TRUE(BodyIs(first, 900, std::byte{0xAB}));
  EXPECT_TRUE(BodyIs(p->messages.PeekHead(), 8, std::byte{0x5C}));
  p->messages.EnqueueHead(first);
}

TEST(NetworkTest, RecycledBufferCarriesOnlyTheNewPacket) {
  ExpectRecycledBuffersCarryExactBytes(0);
}

TEST(NetworkTest, DuplicatedPacketsAreByteIdentical) {
  ExpectRecycledBuffersCarryExactBytes(1000);
}

}  // namespace
}  // namespace mkc
