// One windowed snapshot stream per node, with a local and an in-band sink.
//
// Every per-window fact the simulator reports over virtual time — CPU
// utilization, run-queue depth, stalls, netipc traffic deltas, service
// backlog and admission, and the SLO tracker's windowed tails — leaves the
// kernel as one fixed-size, integer-only Snapshot. A kernel armed with
// KernelConfig::snapshot_interval owns one SnapshotEmitter that takes a
// snapshot lazily at every multiple of the interval: the first safe point
// (Kernel::ObsTick, and the span hooks while the SLO tracker is armed) at or
// past a boundary emits one row per boundary crossed. The emitter holds the
// only copy of the per-window delta baselines.
//
// Two sinks read the stream:
//  * the local sink, Jsonl(): each snapshot rendered as one JSONL row, plus
//    the registry's counter deltas and histogram quantiles, which only a
//    sink inside the kernel can see (left out once the in-band sink is
//    attached, whose rows stand in for the local ones);
//  * the in-band sink, TelemetryPlane (src/obs/collector.h): per-node agent
//    threads ship taken() snapshots as Mach messages to a collector on node
//    0, which renders them with the same AppendSnapshotRow.
//
// Row `seq` k is the snapshot at boundary t = (k+1)·interval. Its deltas
// cover everything since the previous row, sampled at the safe point that
// crossed the boundary; when one step crosses several boundaries, each of
// their rows carries the step's utilization, and the first carries the
// count deltas (the rest carry zero, so the deltas still sum to the totals). The SLO section is the tracker's sliding window ending
// at the boundary, so with interval == the SLO window it is exactly the
// completed tumbling window [t - window, t).
//
// The emitter charges no cycles and touches no kernel state, so the local
// sink never moves virtual time; everything is integral virtual-tick data,
// so a fixed (config, seed) gives a byte-identical stream.
#ifndef MACHCONT_SRC_OBS_SNAPSHOT_H_
#define MACHCONT_SRC_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/types.h"
#include "src/obs/slo.h"

namespace mkc {

class Kernel;
struct SvcNodeStats;

// Snapshot::sections bits: which optional sections a row carries.
inline constexpr std::uint32_t kSnapNet = 1;  // The node runs netipc.
inline constexpr std::uint32_t kSnapSvc = 2;  // A service fabric is attached.
inline constexpr std::uint32_t kSnapSlo = 4;  // The SLO tracker is armed.

struct Snapshot {
  std::uint32_t node = 0;
  std::uint32_t seq = 0;            // Per-node row number.
  std::uint64_t t = 0;              // The boundary tick, (seq + 1) * interval.
  std::uint32_t util_permille = 0;  // Busy CPU share since the last row.
  std::uint32_t runq = 0;           // Run-queue depth across CPUs (gauge).
  std::uint64_t stalls = 0;         // Watchdog stall records so far (total).
  std::uint32_t sections = 0;
  std::uint32_t pad = 0;
  // Deltas since the last row.
  std::uint64_t net_tx = 0;
  std::uint64_t net_rx = 0;
  std::uint64_t net_retx = 0;
  std::uint64_t net_apig = 0;  // Piggybacked acks.
  std::uint64_t net_coal = 0;  // Coalesced frames.
  std::uint64_t svc_backlog = 0;   // Frontend open-loop backlog (gauge).
  std::uint64_t svc_admitted = 0;  // Delta.
  std::uint64_t svc_shed = 0;      // Delta.
  SloKindSnapshot slo[SloTracker::kKinds];  // Windowed rpc/fault/exception.
};

// The Snapshot is a message body as-is: no padding bytes to leak.
static_assert(std::has_unique_object_representations_v<Snapshot>);

// Appends one JSONL row: the fixed fields, the present sections, then
// `extra` (a string of ",\"key\":value" members), then "}\n".
void AppendSnapshotRow(std::string* out, const Snapshot& s,
                       const std::string& extra = std::string());

// Renders a snapshot stream (local or collector rows) as a per-boundary,
// per-node table: utilization, run-queue depth, net deltas, windowed rpc
// tails, violations, stalls, and svc columns when some row has them. Used
// by machcont_sim's telemetry summary and tools/machcont_top.
std::string FormatSnapshotTable(const std::string& rows_jsonl);

class SnapshotEmitter {
 public:
  explicit SnapshotEmitter(Ticks interval) : interval_(interval), next_(interval) {}

  // Safe-point hook: takes one snapshot per boundary the frontier has
  // reached. Cheap when nothing is due.
  void Tick(Kernel& kernel);

  // Adds the svc section: admitted/shed deltas from `stats` and the backlog
  // gauge. Either may be null. The pointees must outlive the emitter.
  void AttachSvc(const SvcNodeStats* stats, const std::uint64_t* backlog);

  // Called by TelemetryPlane: the collector's rows are the run's output, so
  // local rows stop rendering the registry sections nobody reads.
  void AttachInBand() { in_band_ = true; }

  Ticks next_boundary() const { return next_; }

  // Every snapshot taken so far, in order (the in-band sink's source).
  const std::vector<Snapshot>& taken() const { return taken_; }
  // The local sink's rows.
  const std::string& Jsonl() const { return jsonl_; }

 private:
  Snapshot Take(Kernel& kernel, Ticks boundary, std::uint32_t util_permille);
  void AppendRegistrySections(Kernel& kernel, std::string* out);

  Ticks interval_;
  Ticks next_;
  std::vector<Snapshot> taken_;
  std::string jsonl_;
  const SvcNodeStats* svc_ = nullptr;
  const std::uint64_t* svc_backlog_ = nullptr;
  bool in_band_ = false;
  // Delta baselines.
  Ticks prev_t_ = 0;
  std::uint64_t prev_busy_ = 0;
  std::uint64_t prev_net_[5] = {};
  std::uint64_t prev_admitted_ = 0;
  std::uint64_t prev_shed_ = 0;
  std::vector<std::uint64_t> prev_counters_;  // Registration order.
};

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_SNAPSHOT_H_
