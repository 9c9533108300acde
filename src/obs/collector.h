// The in-band snapshot sink: per-node agents shipping each node's snapshot
// stream (src/obs/snapshot.h) over ordinary Mach IPC to a collector node.
//
// This is the observability plane dogfooding the paper's §3.3 claim. Each
// node runs one agent — a daemon user thread that spends its life blocked
// in a timed mach_msg receive until the node's next snapshot boundary.
// Under MK40 that blocked receive holds *no kernel stack* (the thread parks
// on mach_msg_continue), so N nodes of always-on telemetry cost zero idle
// stacks — the same argument Draves et al. make for the netmsg server's 37
// threads. Each time the receive times out, the agent sends every snapshot
// its node's SnapshotEmitter has taken since the last wake, one message per
// snapshot, to the collector on node 0 — through a netipc proxy port for
// remote nodes, i.e. the telemetry rides the same transport it measures.
// The collector is another continuation-blocked daemon thread that renders
// each received Snapshot with AppendSnapshotRow, the local sink's renderer;
// tools/machcont_top renders either stream as a table over time.
//
// Everything is virtual-time driven and in-band, so for a fixed (config,
// seed) the row stream is byte-identical across runs. The plane holds no
// liveness: Cluster::Run() ends when the workload does, the pre_drain hook
// (ClusterRpcParams) calls Stop(), and each agent parks forever on its next
// timeout instead of re-arming — letting Drain() terminate.
#ifndef MACHCONT_SRC_OBS_COLLECTOR_H_
#define MACHCONT_SRC_OBS_COLLECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mkc {

class Cluster;

// msg_id of snapshot messages (distinct from workload traffic on sight).
inline constexpr std::uint32_t kTelemetryMsgId = 0x7e1e;

class TelemetryPlane {
 public:
  // Creates the collector endpoint on node 0 and one agent per node. Every
  // node must have a snapshot emitter (KernelConfig::snapshot_interval > 0).
  // Must run before Cluster::Run() (it creates tasks, ports and threads).
  explicit TelemetryPlane(Cluster& cluster);
  ~TelemetryPlane();

  TelemetryPlane(const TelemetryPlane&) = delete;
  TelemetryPlane& operator=(const TelemetryPlane&) = delete;

  // Stand the agents down: each parks forever on its next timer expiry
  // instead of re-arming. Pure data write — safe between Run() and Drain().
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // The collector's JSONL output: one row per received snapshot, in the
  // deterministic arrival order.
  const std::string& Rows() const { return rows_; }

  // ClusterRpcParams::pre_drain adapter.
  static void PreDrainHook(void* arg);

 private:
  struct AgentState;
  struct CollectorState;

  static void AgentThread(void* arg);
  static void CollectorThread(void* arg);

  bool stopped_ = false;
  std::string rows_;
  std::unique_ptr<CollectorState> collector_;
  std::vector<std::unique_ptr<AgentState>> agents_;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_COLLECTOR_H_
