#include "src/obs/collector.h"

#include <cstring>

#include "src/ipc/ipc_space.h"
#include "src/ipc/message.h"
#include "src/kern/kernel.h"
#include "src/net/cluster.h"
#include "src/net/netipc.h"
#include "src/obs/snapshot.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {

static_assert(sizeof(Snapshot) <= kMaxInlineBytes,
              "snapshots must fit an inline message body");

struct TelemetryPlane::AgentState {
  TelemetryPlane* plane = nullptr;
  Kernel* kernel = nullptr;
  PortId timer_port = kInvalidPort;  // Receive-only; nothing ever sends here.
  PortId dest = kInvalidPort;        // Collector port (node 0) or its proxy.
  std::size_t shipped = 0;           // Snapshots already sent.
};

struct TelemetryPlane::CollectorState {
  TelemetryPlane* plane = nullptr;
  PortId port = kInvalidPort;
};

void TelemetryPlane::AgentThread(void* arg) {
  auto* a = static_cast<AgentState*>(arg);
  Kernel& k = *a->kernel;
  SnapshotEmitter& emitter = *k.snapshots();
  UserMessage msg;
  for (;;) {
    emitter.Tick(k);
    for (; a->shipped < emitter.taken().size(); ++a->shipped) {
      msg.header = MessageHeader{};
      msg.header.dest = a->dest;
      msg.header.msg_id = kTelemetryMsgId;
      std::memcpy(msg.body, &emitter.taken()[a->shipped], sizeof(Snapshot));
      UserMachMsg(&msg, kMsgSendOpt, sizeof(Snapshot), 0, kInvalidPort);
    }
    const Ticks now = k.VirtualTime();
    if (emitter.next_boundary() <= now) {
      continue;  // Sending crossed another boundary.
    }
    // The agent's steady state: a continuation-blocked timed receive on a
    // port nobody sends to, until the next snapshot boundary. Under MK40
    // this holds no kernel stack — the plane is idle-stack-free, per §3.3.
    UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, a->timer_port,
                emitter.next_boundary() - now);
    if (a->plane->stopped()) {
      // Workload over (pre-drain): park forever instead of re-arming the
      // timer, so Drain() has no telemetry events left to run.
      UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, a->timer_port);
      return;
    }
  }
}

void TelemetryPlane::CollectorThread(void* arg) {
  auto* c = static_cast<CollectorState*>(arg);
  UserMessage msg;
  for (;;) {
    if (UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, c->port) !=
        KernReturn::kSuccess) {
      return;
    }
    if (msg.header.msg_id != kTelemetryMsgId || msg.header.size != sizeof(Snapshot)) {
      continue;
    }
    Snapshot s;
    std::memcpy(&s, msg.body, sizeof(s));
    AppendSnapshotRow(&c->plane->rows_, s);
  }
}

TelemetryPlane::TelemetryPlane(Cluster& cluster) {
  ThreadOptions daemon;
  daemon.daemon = true;

  Kernel& front = cluster.node(0);
  Task* front_task = front.CreateTask("telemetry");
  collector_ = std::make_unique<CollectorState>();
  collector_->plane = this;
  collector_->port = front.ipc().AllocatePort(front_task);
  front.CreateUserThread(front_task, &CollectorThread, collector_.get(), daemon);

  for (int i = 0; i < cluster.nnodes(); ++i) {
    Kernel& node = cluster.node(i);
    MKC_ASSERT(node.snapshots() != nullptr);
    node.snapshots()->AttachInBand();
    Task* task = i == 0 ? front_task : node.CreateTask("telemetry");
    auto agent = std::make_unique<AgentState>();
    agent->plane = this;
    agent->kernel = &node;
    agent->timer_port = node.ipc().AllocatePort(task);
    // Remote agents reach the collector through an ordinary netipc proxy —
    // telemetry rides the transport it measures.
    agent->dest = i == 0 ? collector_->port
                         : cluster.netipc(i).BindProxy(0, collector_->port);
    node.CreateUserThread(task, &AgentThread, agent.get(), daemon);
    agents_.push_back(std::move(agent));
  }
}

TelemetryPlane::~TelemetryPlane() = default;

void TelemetryPlane::PreDrainHook(void* arg) {
  static_cast<TelemetryPlane*>(arg)->Stop();
}

}  // namespace mkc
