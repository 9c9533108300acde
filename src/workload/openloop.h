// The open-loop traffic engine: millions of independent users, modeled
// honestly.
//
// Closed-loop workloads (a fixed thread count looping request→reply) can
// never drive the system into overload: each client self-throttles on its
// own latency, so offered load collapses exactly when the system slows
// down. The ROADMAP's million-user scenario needs the opposite — an
// arrival process that injects requests on the virtual-time frontier
// *regardless of completions*, the way independent users do.
//
// Structure:
//
//   * An ArrivalProcess generates the request stream — (tick, kind, key)
//     tuples — from a private RNG seeded off the workload seed alone (not
//     the per-node seeds), so the stream is byte-identical across runs and
//     across --nodes=1 vs cluster topologies. Poisson arrivals use von
//     Neumann's 1951 exponential sampler (pure uint64 comparisons — no
//     libm, so the stream is also platform-identical); bursty mode issues
//     Pareto-sized batches with exponential inter-batch gaps scaled by the
//     batch size, preserving the offered rate while producing heavy-tailed
//     bursts.
//
//   * A generator event chain on node 0 posts each arrival at its stream
//     tick, appending to an unbounded backlog deque — the honest open-loop
//     queue: latency is measured from the *arrival* tick, so time spent in
//     backlog counts against the request.
//
//   * A pool of injector threads pops the backlog and issues service RPCs
//     (local ports at --nodes=1, netipc proxy ports in a cluster),
//     handling typed rejections with bounded retry-and-backoff. Idle
//     injectors park in a continuation-blocked receive on a frontdoor port
//     (zero stacks idle under MK40); the generator kicks them by direct
//     message delivery when arrivals land.
//
//   * Completions are recorded into a per-service-kind SloTracker, giving
//     windowed/cumulative p50/p99/p99.9 per kind; goodput is completions
//     within deadline — the number that collapses past the knee without
//     shedding even while raw throughput stays at capacity.
//
// Everything is virtual-time driven and integral, so a fixed (config,
// params, seed) run is byte-identical — the 64-node CI determinism smoke
// holds the whole pipeline to that.
#ifndef MACHCONT_SRC_WORKLOAD_OPENLOOP_H_
#define MACHCONT_SRC_WORKLOAD_OPENLOOP_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/obs/slo.h"
#include "src/svc/service.h"
#include "src/svc/shard_map.h"

namespace mkc {

class Cluster;
class Kernel;
struct Thread;

// The generator's kick message to parked injectors.
inline constexpr std::uint32_t kSvcKickMsgId = 0x53764b49;

struct OpenLoopParams {
  std::uint64_t rate = 250;        // Offered load: arrivals per Mtick.
  bool bursty = false;             // Pareto-batch arrivals instead of Poisson.
  ServiceSpec services;            // Shards per kind (kind 0 shards = no traffic).
  std::uint64_t total_arrivals = 2000;
  Ticks deadline = 60000;          // Relative per-request deadline; 0 = none.

  // Overload control. shed_depth 0 = no shedding anywhere (the ablation
  // that collapses); > 0 arms server-side deadline/queue-depth shedding
  // and client-side stale-drop.
  std::uint32_t shed_depth = 0;
  std::uint32_t admission_qlimit = 0;  // Service-port qlimit; 0 = default 64.
  // Client-side margin: a request within `margin` of its deadline is
  // dropped without issuing (it could not complete in time anyway).
  // 0 = deadline / 4.
  Ticks client_margin = 0;

  int threads_per_shard = 2;
  int injectors = 8;
  int max_retries = 3;
  Ticks backoff_base = 2000;       // Doubles per retry.

  std::uint64_t seed = 42;
  Ticks slo_window = 200000;       // Per-kind service SLO window width.
};

// Deterministic arrival-stream generator. Separable from the engine so
// tests can replay the stream without running a kernel.
class ArrivalProcess {
 public:
  ArrivalProcess(const OpenLoopParams& params);

  struct Arrival {
    Ticks tick = 0;
    ServiceKind kind = ServiceKind::kName;
    std::uint64_t key = 0;
  };

  // The next batch of arrivals (size 1 under Poisson). Returns an empty
  // batch once `total_arrivals` have been produced.
  std::vector<Arrival> NextBatch();
  // The same, written over `batch` so a caller that keeps one buffer
  // allocates nothing per batch.
  void NextBatch(std::vector<Arrival>& batch);

  std::uint64_t produced() const { return produced_; }

  // FNV-1a over the (tick, kind, key) stream so far — the determinism
  // tests' fingerprint.
  std::uint64_t stream_hash() const { return hash_; }

 private:
  Ticks NextGap(std::uint64_t scale);
  std::uint64_t ParetoBatch();
  ServiceKind PickKind();

  OpenLoopParams params_;
  Rng rng_;
  Ticks next_tick_ = 0;
  std::uint64_t produced_ = 0;
  std::uint64_t mean_gap_ = 0;  // Mean inter-arrival ticks (1e6 / rate).
  int kind_weights_[kServiceKindCount] = {0, 0, 0};
  int weight_total_ = 0;
  std::uint64_t hash_ = 1469598103934665603ULL;  // FNV-1a offset basis.
};

struct OpenLoopKindReport {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;          // Got a reply (even a late one).
  std::uint64_t deadline_met = 0;       // Goodput: completed within deadline.
  std::uint64_t rejected_queue = 0;     // Server queue-depth rejections seen.
  std::uint64_t rejected_deadline = 0;  // Server deadline rejections (final).
  std::uint64_t client_shed = 0;        // Dropped stale before/while issuing.
  std::uint64_t retries = 0;            // Re-issues after queue rejections.
  std::uint64_t failed = 0;             // Retries exhausted or transport death.
};

struct OpenLoopReport {
  OpenLoopKindReport kind[kServiceKindCount];
  std::uint64_t arrivals_total = 0;
  std::uint64_t completed_total = 0;
  std::uint64_t deadline_met_total = 0;
  std::uint64_t shed_total = 0;     // Server shed + client shed, all kinds.
  std::uint64_t retries_total = 0;
  std::uint64_t failed_total = 0;
  std::uint64_t stream_hash = 0;    // Arrival-stream fingerprint.
  Ticks virtual_time = 0;           // Frontier when the engine finished.
  // Cumulative per-kind latency tails from the service SLO tracker
  // (latency epoch = open-loop arrival tick, so backlog wait counts).
  SloKindSnapshot latency[kServiceKindCount];
};

// One open-loop run over a single kernel or a cluster. Construction builds
// the fabric/injectors/generator; the caller then runs the kernel(s) and
// calls Finish().
class OpenLoopEngine {
 public:
  // Single-node: every shard is hosted on `kernel` and reached by local
  // send. The engine owns no kernel; `kernel` must outlive it.
  OpenLoopEngine(Kernel& kernel, const OpenLoopParams& params);
  // Cluster: node 0 is the pure frontend (generator + injectors); shards
  // are hosted round-robin on nodes 1..N-1 behind netipc proxy ports.
  OpenLoopEngine(Cluster& cluster, const OpenLoopParams& params);
  ~OpenLoopEngine();

  OpenLoopEngine(const OpenLoopEngine&) = delete;
  OpenLoopEngine& operator=(const OpenLoopEngine&) = delete;

  // Collects the report. Call after the run completes.
  OpenLoopReport Finish();

  // The per-service-kind SLO tracker (kinds name/file/counter).
  SloTracker& svc_slo() { return *svc_slo_; }

  // Snapshot hookup (SnapshotEmitter::AttachSvc): node `i`'s fabric
  // counters (null for non-serving nodes) and the frontend's backlog gauge.
  const SvcNodeStats* node_stats(int node) const;
  const std::uint64_t* backlog_gauge() const { return &backlog_depth_; }

  // Server-side counters summed over every fabric (for run summaries).
  SvcNodeStats TotalSvcStats() const;

  // Every service-pool and injector thread, for zero-idle-stack checks.
  std::vector<Thread*> AllServiceThreads() const;

  const ShardMap& shard_map() const { return *map_; }

 private:
  struct InjectorState;

  void BuildFrontend(Kernel& front);
  void GeneratorFire();
  void KickParked(std::size_t want);
  void IssueRequest(InjectorState& inj, ServiceKind kind, std::uint64_t key,
                    Ticks arrival);
  static void InjectorThread(void* arg);

  struct PendingRequest {
    ServiceKind kind;
    std::uint64_t key;
    Ticks arrival;
  };

  OpenLoopParams params_;
  Kernel* front_ = nullptr;
  Cluster* cluster_ = nullptr;
  std::unique_ptr<ShardMap> map_;
  std::vector<std::unique_ptr<ServiceFabric>> fabrics_;  // Indexed by node.
  std::vector<int> fabric_nodes_;                        // node id per fabric slot.
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<SloTracker> svc_slo_;

  // (kind, shard) -> port reachable from the frontend (local or proxy).
  std::vector<PortId> route_[kServiceKindCount];

  PortId frontdoor_ = kInvalidPort;
  std::vector<std::unique_ptr<InjectorState>> injectors_;
  std::vector<ArrivalProcess::Arrival> next_batch_;
  std::deque<PendingRequest> backlog_;
  std::uint64_t backlog_depth_ = 0;  // Gauge mirror of backlog_.size().
  bool gen_done_ = false;
  Ticks client_margin_ = 0;
  OpenLoopReport report_;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_WORKLOAD_OPENLOOP_H_
