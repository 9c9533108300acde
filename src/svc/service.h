// The sharded service fabric: continuation-blocked server pools with
// bounded admission and load shedding.
//
// A ServiceFabric instance hosts, on one kernel, every shard the ShardMap
// assigns to that node: a port per shard plus a small pool of server
// threads blocked in UserServeOnce on it. Between requests the pool is the
// paper's §3.3 netmsg-server argument at fabric scale — under MK40 every
// idle server thread is parked on mach_msg_continue and holds zero kernel
// stacks, so a 64-node fabric of hundreds of server threads costs no idle
// stack memory at all (the zero-idle-stack test pins this).
//
// Overload control happens at two points:
//
//   * Admission: each service port's qlimit is the admission bound. A local
//     sender hitting a full queue blocks (ipc.send_full_blocks); a remote
//     sender's packet is refused unacked (net.rx_backpressure) and
//     retransmitted later — either way the queue, and therefore the
//     server's commitment, is bounded.
//   * Shedding (shed_depth > 0): a server dequeuing a request sheds it with
//     a typed rejection reply instead of serving it when (a) the request's
//     deadline has already passed — serving it would waste capacity on a
//     guaranteed SLO miss — or (b) more than shed_depth requests are queued
//     behind it, which drops queue latency back toward zero after a burst.
//     Rejections are cheap (no service work), which is exactly what keeps
//     goodput at capacity past the knee.
//
// Everything is deterministic: shard placement and key routing come from
// the ShardMap, service costs are fixed tick constants, and the per-kind
// counters are registered in the node's MetricsRegistry only when a fabric
// exists (runs without one are byte-identical to pre-fabric builds).
#ifndef MACHCONT_SRC_SVC_SERVICE_H_
#define MACHCONT_SRC_SVC_SERVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/types.h"
#include "src/svc/shard_map.h"

namespace mkc {

class Kernel;
struct Thread;

// Service wire protocol, distinct on sight from workload RPC traffic.
inline constexpr std::uint32_t kSvcRequestMsgId = 0x53764351;
inline constexpr std::uint32_t kSvcReplyMsgId = 0x53764352;
inline constexpr std::uint32_t kSvcRejectMsgId = 0x53764353;

// SvcRejectBody::reason.
inline constexpr std::uint32_t kSvcRejectQueueDepth = 1;
inline constexpr std::uint32_t kSvcRejectDeadline = 2;

struct SvcRequestBody {
  std::uint32_t kind = 0;      // ServiceKind.
  std::uint32_t shard = 0;     // Routed shard (client-side ShardMap lookup).
  std::uint64_t key = 0;
  Ticks arrival = 0;           // Open-loop arrival tick (latency epoch).
  Ticks deadline = 0;          // Absolute; 0 = none.
  std::uint32_t attempt = 0;   // Retry ordinal, 0 on the first try.
  std::uint32_t pad = 0;
};

struct SvcReplyBody {
  std::uint64_t value = 0;     // Counter value / name hash / file checksum.
};

struct SvcRejectBody {
  std::uint32_t reason = 0;    // kSvcReject*.
  std::uint32_t pad = 0;
};

// Fixed service costs in virtual ticks. Part of the deterministic contract
// (the bench knee is calibrated against these).
inline constexpr Ticks kSvcNameWork = 600;
inline constexpr Ticks kSvcFileWork = 2500;
inline constexpr Ticks kSvcCounterWork = 400;

Ticks ServiceWorkTicks(ServiceKind kind);

// Per-kind served/shed accounting, registered as svc.* metrics.
struct SvcKindCounters {
  std::uint64_t admitted = 0;       // Requests actually served.
  std::uint64_t shed_queue = 0;     // Rejected: queue depth over shed_depth.
  std::uint64_t shed_deadline = 0;  // Rejected: deadline already blown.
};

struct SvcNodeStats {
  SvcKindCounters kind[kServiceKindCount];
  // Node totals maintained alongside the per-kind rows — what the
  // snapshot emitter deltas against each window.
  std::uint64_t admitted_total = 0;
  std::uint64_t shed_total = 0;
};

struct ServiceFabricConfig {
  // Shedding: 0 disables both shed checks (requests are always served).
  std::uint32_t shed_depth = 0;
  // Admission bound installed as each service port's qlimit; 0 keeps the
  // port default (64).
  std::uint32_t admission_qlimit = 0;
  int threads_per_shard = 2;
};

// One node's slice of the fabric. Builds tasks/ports/threads at
// construction (must run before Kernel::Run / Cluster::Run).
class ServiceFabric {
 public:
  // Hosts every (kind, shard) the map assigns to `node_id` on `kernel`.
  ServiceFabric(Kernel& kernel, const ShardMap& map, int node_id,
                const ServiceFabricConfig& config);
  ~ServiceFabric();

  ServiceFabric(const ServiceFabric&) = delete;
  ServiceFabric& operator=(const ServiceFabric&) = delete;

  // The local service port for (kind, shard); kInvalidPort when that shard
  // lives on another node.
  PortId PortFor(ServiceKind kind, int shard) const;

  const SvcNodeStats& stats() const { return *stats_; }
  int hosted_shards() const { return hosted_shards_; }

  // Every server thread built on this node, for the zero-idle-stack checks.
  const std::vector<Thread*>& server_threads() const { return threads_; }

 private:
  struct ShardState;

  static void ServerThread(void* arg);

  Kernel& kernel_;
  ServiceFabricConfig config_;
  // Heap-allocated so metric views and thread args stay stable.
  std::unique_ptr<SvcNodeStats> stats_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<Thread*> threads_;
  std::vector<PortId> ports_[kServiceKindCount];  // shard -> local port.
  int hosted_shards_ = 0;
  std::uint64_t hosted_gauge_ = 0;  // Registered as svc.shards_hosted.
};

}  // namespace mkc

#endif  // MACHCONT_SRC_SVC_SERVICE_H_
