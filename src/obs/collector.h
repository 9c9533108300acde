// In-band cluster telemetry: per-node agents shipping windowed metric
// deltas over ordinary Mach IPC to a collector node.
//
// This is the telemetry plane dogfooding the paper's §3.3 claim. Each node
// runs one agent — a daemon user thread that spends its life blocked in a
// timed mach_msg receive. Under MK40 that blocked receive holds *no kernel
// stack* (the thread parks on mach_msg_continue), so N nodes of always-on
// telemetry cost zero idle stacks — the same argument Draves et al. make
// for the netmsg server's 37 threads. Each time the receive times out, the
// agent samples its node (CPU utilization and run-queue depth since the
// last sample, netipc counter deltas, the SLO tracker's sliding-window
// tails, watchdog stalls), packs the sample into a message, and sends it to
// the collector on node 0 — through a netipc proxy port for remote nodes,
// i.e. the telemetry rides the same transport it measures. The collector is
// another continuation-blocked daemon thread that appends one JSONL row per
// report; tools/machcont_top renders the stream as a table over time.
//
// Everything is virtual-time driven and in-band, so for a fixed (config,
// seed) the row stream is byte-identical across runs. The plane holds no
// liveness: Cluster::Run() ends when the workload does, the pre_drain hook
// (ClusterRpcParams) calls Stop(), and each agent parks forever on its next
// timeout instead of re-arming — letting Drain() terminate.
#ifndef MACHCONT_SRC_OBS_COLLECTOR_H_
#define MACHCONT_SRC_OBS_COLLECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace mkc {

class Cluster;
class Kernel;
struct SvcNodeStats;

// msg_id of telemetry reports (distinct from workload traffic on sight).
inline constexpr std::uint32_t kTelemetryMsgId = 0x7e1e;

struct TelemetryConfig {
  Ticks interval = 100000;  // Virtual ticks between samples.
};

// The wire format an agent packs into the message body. Plain integers
// only, so the row stream stays bit-deterministic.
struct TelemetryReport {
  std::uint32_t node = 0;
  std::uint32_t seq = 0;          // Per-node sample number.
  std::uint64_t t = 0;            // Node frontier at sample time.
  std::uint32_t util_permille = 0;  // Busy CPU share since the last sample.
  std::uint32_t runnable = 0;       // Run-queue depth across CPUs, sampled.
  std::uint64_t net_tx = 0;       // Packets sent since the last sample.
  std::uint64_t net_rx = 0;
  std::uint64_t net_retx = 0;
  std::uint64_t stalls = 0;       // Watchdog stall records so far (total).
  std::uint32_t has_slo = 0;
  std::uint32_t pad = 0;
  struct KindRow {
    std::uint64_t count = 0;      // Sliding-window view at sample time.
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t violations = 0;
  } kinds[3];                     // rpc / fault / exception.

  // netipc extension; every agent fills it (a cluster node always runs
  // netipc), so kTelemetryNet2Bytes is the shortest report on the wire.
  std::uint32_t has_net2 = 0;
  std::uint32_t pad2 = 0;
  std::uint64_t net_apig = 0;     // Piggybacked acks since the last sample.
  std::uint64_t net_coal = 0;     // Coalesced frames since the last sample.

  // Service-fabric extension: present only on nodes where an open-loop
  // engine attached its stats (AttachSvc). Runs without a fabric ship a
  // shorter prefix, keeping their wire and row stream byte-identical.
  std::uint32_t has_svc = 0;
  std::uint32_t pad3 = 0;
  std::uint64_t svc_backlog = 0;   // Frontend open-loop backlog depth (gauge).
  std::uint64_t svc_admitted = 0;  // Requests admitted since the last sample.
  std::uint64_t svc_shed = 0;      // Requests shed since the last sample.
};

inline constexpr std::size_t kTelemetryNet2Bytes =
    offsetof(TelemetryReport, has_svc);

class TelemetryPlane {
 public:
  // Creates the collector endpoint on node 0 and one agent per node.
  // Must run before Cluster::Run() (it creates tasks, ports and threads).
  TelemetryPlane(Cluster& cluster, const TelemetryConfig& config = {});
  ~TelemetryPlane();

  TelemetryPlane(const TelemetryPlane&) = delete;
  TelemetryPlane& operator=(const TelemetryPlane&) = delete;

  // Stand the agents down: each parks forever on its next timer expiry
  // instead of re-arming. Pure data write — safe between Run() and Drain().
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Wires node `node`'s agent to a service fabric's counters and (on the
  // frontend) the open-loop backlog gauge. Either pointer may be null.
  // Call before Cluster::Run(); the pointees must outlive the plane.
  void AttachSvc(int node, const SvcNodeStats* stats,
                 const std::uint64_t* backlog_gauge);

  // The collector's JSONL output: one row per received report, in the
  // deterministic arrival order.
  const std::string& Rows() const { return rows_; }

  // ClusterRpcParams::pre_drain adapter.
  static void PreDrainHook(void* arg);

 private:
  struct AgentState;
  struct CollectorState;

  static void AgentThread(void* arg);
  static void CollectorThread(void* arg);
  void AppendRow(const TelemetryReport& report);

  TelemetryConfig config_;
  bool stopped_ = false;
  std::string rows_;
  std::unique_ptr<CollectorState> collector_;
  std::vector<std::unique_ptr<AgentState>> agents_;
};

// Renders a collector JSONL stream (TelemetryPlane::Rows or a --telemetry-out
// file) as a per-interval, per-node table: utilization, run-queue depth,
// packet/retransmit deltas, windowed rpc tails, violations, stalls. Used by
// machcont_sim's end-of-run summary and tools/machcont_top.
std::string FormatTelemetryTable(const std::string& rows_jsonl);

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_COLLECTOR_H_
