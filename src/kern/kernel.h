// The kernel object: configuration, boot, scheduling loop, and ownership of
// every subsystem. One Kernel instance is one simulated machine.
#ifndef MACHCONT_SRC_KERN_KERNEL_H_
#define MACHCONT_SRC_KERN_KERNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/panic.h"
#include "src/base/queue.h"
#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/base/vclock.h"
#include "src/core/trace.h"
#include "src/kern/processor.h"
#include "src/kern/recognition.h"
#include "src/kern/sched.h"
#include "src/kern/stack_pool.h"
#include "src/kern/thread.h"
#include "src/kern/transfer_stats.h"
#include "src/exc/exc_stats.h"
#include "src/machine/cost_model.h"
#include "src/obs/introspect.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace mkc {

struct Task;
class IpcSpace;
class VmSystem;
struct ExtState;
class DeviceRegistry;
class NetIpc;
class Kernel;
class Profiler;
class SnapshotEmitter;
class StallWatchdog;
class SloTracker;

// Arbitration interface a multi-node driver (net/cluster.h) installs on each
// member kernel. A clustered kernel's idle loop consults the arbiter instead
// of unilaterally draining its event queue or shutting down: the arbiter
// decides whether this node may run its next virtual-time event now, or must
// park (return from Run()) so another node — possibly with an earlier
// deadline or runnable work — gets the host thread. This is what keeps N
// per-node clocks forming one deterministic global frontier.
class ClusterArbiter {
 public:
  virtual ~ClusterArbiter() = default;
  virtual bool MayRunNextEvent(Kernel& node) = 0;
};

// Which kernel the simulation behaves as (§3.1):
//   kMach25 — process model; messages always queued; receivers woken through
//             the general scheduler. No continuations.
//   kMK32   — process model with the optimized RPC path: direct context
//             switch from sender to receiver, no queueing. No continuations.
//   kMK40   — the paper's system: continuations, stack discard, stack
//             handoff, continuation recognition.
enum class ControlTransferModel : std::uint8_t { kMach25, kMK32, kMK40 };

const char* ModelName(ControlTransferModel model);

struct KernelConfig {
  ControlTransferModel model = ControlTransferModel::kMK40;

  std::size_t kernel_stack_bytes = 64 * 1024;
  std::size_t user_stack_bytes = 128 * 1024;
  std::size_t stack_cache_limit = 16;

  // Simulated processors (1..kMaxCpus). With ncpu == 1 every code path is
  // exactly the uniprocessor kernel's: same scheduling decisions, same
  // metrics, byte-identical output.
  int ncpu = 1;
  // Host-interleave granularity: a CPU hands the host thread to the next
  // CPU after this many local ticks at the clock-interrupt safe point.
  Ticks cpu_slice = 5000;

  Ticks quantum = 10000;          // Virtual ticks per scheduling quantum.
  std::uint32_t physical_pages = 4096;  // Simulated physical memory.
  Ticks disk_latency = 2000;      // Virtual ticks per simulated disk I/O.

  std::uint64_t seed = 42;        // Seed for all workload randomness.

  // Control-transfer trace ring size; 0 disables tracing (core/trace.h).
  std::size_t trace_capacity = 0;

  // Ablation switches (MK40 only; see bench/bench_ablation.cc).
  bool enable_handoff = true;      // Stack handoff between continuations.
  // Continuation recognition (kern/recognition.h): specialized resume and
  // wakeup handlers consulted on the transfer/wakeup paths.
  bool enable_recognition = true;

  // --- Allocation-free IPC hot paths (all models; see kern/zone.h) --------
  // Elements cached per CPU in each size-classed kmsg zone; 0 disables
  // magazines, so every kmsg comes from its zone's depot at the plain
  // per-element cycle costs.
  std::size_t kmsg_magazine_depth = 8;

  // --- Multi-node netipc (src/net/) --------------------------------------
  // Number of simulated machines in the cluster and this kernel's position
  // in it. With nnodes == 1 no net subsystem exists and every code path is
  // exactly the single-machine kernel's (byte-identical output). Node ids
  // partition the causal-span id space so cross-node span chains stay
  // collision-free.
  int nnodes = 1;
  int node_id = 0;

  // --- Continuation-aware observability (src/obs/profiler.h, watchdog.h,
  // snapshot.h) -----------------------------------------------------------
  // All three default to 0 = off; off, no profiler/watchdog/emitter object
  // exists, the safe points pay one predictable branch, and every output is
  // byte-identical to a build without the feature. The observers are pure
  // (no cycles charged), so turning them on changes no simulated outcome
  // either — only what gets reported.
  Ticks profile_interval = 0;    // Virtual ticks between profiler samples.
  Ticks snapshot_interval = 0;   // Virtual ticks between snapshot rows.
  Ticks watchdog_threshold = 0;  // Stall age that makes the watchdog bark.

  // --- SLO telemetry plane (src/obs/slo.h) --------------------------------
  // slo_window > 0 arms the windowed-tail tracker: spans are measured even
  // with tracing off (spans_armed_), per-kind sliding-window p50/p99/p99.9,
  // violation counts and error-budget burn appear in the metrics JSON
  // ("slo" block) and snapshot rows. Off (the default) the tracker does not
  // exist and all output is byte-identical to a pre-SLO build. Like the
  // profiler, the tracker charges no cycles: arming it never moves virtual
  // time. Sub-windows, targets and objective are SloConfig's defaults.
  //
  // With both the tracker and the trace ring armed, the ring is tail-sampled
  // (core/trace.h): it retains complete span chains only for the 1-in-N
  // head sample and the K slowest requests of each kind, instead of letting
  // the ring overwrite arbitrary prefixes (K, N and the per-chain cap are
  // TailSamplingConfig's defaults).
  Ticks slo_window = 0;           // Sliding-window width; 0 = SLO plane off.
};

// Stable pointers into the metrics registry for the hot-path latency
// histograms; populated once at kernel construction so recording is a direct
// pointer dereference (no name lookup, no allocation).
struct KernelLatencyMetrics {
  // Block-to-resume latency per blocking reason (kIdle unused — idle blocks
  // are scheduling artifacts, as in Table 1).
  LatencyHistogram* block_to_resume[static_cast<int>(BlockReason::kCount)] = {};
  LatencyHistogram* transfer_handoff = nullptr;  // BlockCommon via stack handoff.
  LatencyHistogram* transfer_switch = nullptr;   // BlockCommon via full switch.
  LatencyHistogram* rpc_round_trip = nullptr;    // UserRpc send..reply.
  LatencyHistogram* fault_service = nullptr;     // Page-fault entry..return.
  LatencyHistogram* exc_service = nullptr;       // Exception raise..reply.
};

// User-thread entry point, executed in simulated user mode on the thread's
// user stack.
using UserEntry = void (*)(void* arg);

struct ThreadOptions {
  int priority = 16;
  bool daemon = false;  // Daemon threads don't keep the simulation alive.
  std::size_t user_stack_bytes = 0;  // 0 = the kernel config default.
  // Initial CPU placement: -1 spreads new threads round-robin; 0..ncpu-1
  // pins the first run (the thread migrates freely afterwards).
  int home_cpu = -1;
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Setup (before Run) ---------------------------------------------
  Task* CreateTask(std::string name);
  Thread* CreateUserThread(Task* task, UserEntry entry, void* arg,
                           const ThreadOptions& options = {});

  // Creates an internal kernel thread whose body is `loop`, a continuation
  // that must end by blocking (typically tail-recursively on itself, §2.2).
  Thread* CreateKernelThread(std::string name, Continuation loop, int priority = 24);

  // --- Execution --------------------------------------------------------
  // Boots the machine and runs until every non-daemon user thread has
  // exited. May be called repeatedly; state (tasks, ports, stats) persists.
  void Run();

  // --- Accessors used throughout the kernel -----------------------------
  const KernelConfig& config() const { return config_; }
  ControlTransferModel model() const { return config_.model; }
  bool UsesContinuations() const { return config_.model == ControlTransferModel::kMK40; }

  // The processor this flow of control is executing on. With ncpu == 1 this
  // is the machine's only CPU; otherwise it changes as the host thread is
  // interleaved between the simulated CPUs.
  Processor& processor() { return *current_cpu_; }
  Processor& cpu(int i) { return *cpus_[static_cast<std::size_t>(i)]; }
  const Processor& cpu(int i) const { return *cpus_[static_cast<std::size_t>(i)]; }
  int ncpu() const { return config_.ncpu; }

  // The invoking CPU's run queue and clock. Kernel paths always mean "my
  // CPU's" — cross-CPU access goes through cpu(i) explicitly.
  RunQueue& run_queue() { return current_cpu_->run_queue; }
  StackPool& stack_pool() { return stack_pool_; }
  CostModel& cost_model() { return cost_model_; }
  TransferStats& transfer_stats() { return transfer_stats_; }
  const TransferStats& transfer_stats() const { return transfer_stats_; }
  VirtualClock& clock() { return current_cpu_->clock; }
  EventQueue& events() { return events_; }
  Rng& rng() { return rng_; }
  TraceBuffer& trace() { return trace_; }

  // Machine-wide elapsed virtual time: the frontier (max) of the per-CPU
  // clocks. This is the "wall clock" of the simulated machine — N CPUs
  // working in parallel advance it at 1/N the rate of their summed work.
  Ticks VirtualTime() const {
    if (config_.ncpu == 1) {
      return cpus_[0]->clock.Now();
    }
    Ticks t = 0;
    for (const auto& cpu : cpus_) {
      if (cpu->clock.Now() > t) {
        t = cpu->clock.Now();
      }
    }
    return t;
  }

  // Timestamp source for trace records. The machine frontier, not the local
  // CPU clock: execution order (= ring record order) advances the frontier
  // monotonically, so cross-CPU deltas between consecutive records of one
  // span are non-negative and the analyzer's segment sums are exact.
  // Identical to clock().Now() when ncpu == 1.
  Ticks TraceNow() const { return VirtualTime(); }

  // Trace helper: records with the current virtual time, thread, and the
  // thread's causal span (src/obs/span.h).
  void TracePoint(TraceEvent event, std::uint32_t aux = 0, std::uint32_t aux2 = 0) {
    if (trace_.enabled()) {
      Thread* t = current_cpu_->active_thread;
      trace_.Record(TraceNow(), t != nullptr ? t->id : 0, event, aux, aux2,
                    t != nullptr ? t->span_id : 0,
                    static_cast<std::uint16_t>(current_cpu_->id));
    }
  }

  // Trace helper for events whose causal span belongs to a thread other
  // than the one running (setrun of a sleeper, steal of a runnable thread,
  // stack attach/detach on behalf of the subject thread).
  void TracePointSpan(std::uint32_t span, TraceEvent event, std::uint32_t aux = 0,
                      std::uint32_t aux2 = 0) {
    if (trace_.enabled()) {
      Thread* t = current_cpu_->active_thread;
      trace_.Record(TraceNow(), t != nullptr ? t->id : 0, event, aux, aux2, span,
                    static_cast<std::uint16_t>(current_cpu_->id));
    }
  }

  // --- Causal spans (src/obs/span.h) -------------------------------------
  // SpanBegin allocates a span id for a logical request entering the system
  // (RPC send, page fault, exception raise), stamps it on the current
  // thread, and records a span-begin event; SpanEnd closes it and restores
  // the enclosing span. SpanAdopt re-stamps a thread with a span carried in
  // a message header so the request's identity survives delivery, handoff,
  // migration and steal. All three are no-ops (and span ids stay 0
  // everywhere) unless spans are armed — by a trace ring or by the SLO
  // tracker, which measures span latencies even with tracing off.
  std::uint32_t SpanBegin(SpanKind kind);
  void SpanEnd(SpanKind kind);
  void SpanAdopt(Thread* thread, std::uint32_t span);

  // --- Continuation-aware observability (src/obs/) ------------------------
  // The registry maps continuation pointers to names for the profiler's
  // logical stacks; registration is construction-time data and costs the hot
  // paths nothing. The Note* accounting hooks and the sampling tick are each
  // one predictable branch when no profiler/watchdog is configured, so a run
  // with everything off is byte-identical to one built without the feature.
  ContinuationRegistry& continuations() { return cont_registry_; }
  const ContinuationRegistry& continuations() const { return cont_registry_; }
  Profiler* profiler() { return profiler_.get(); }
  SnapshotEmitter* snapshots() { return snapshots_.get(); }
  StallWatchdog* watchdog() { return watchdog_.get(); }
  SloTracker* slo() { return slo_.get(); }
  const SloTracker* slo() const { return slo_.get(); }

  // Generalized continuation recognition (kern/recognition.h): specialized
  // resume handlers keyed by continuation pointer, consulted on the
  // post-handoff and wakeup paths.
  RecognitionTable& recognition() { return recognition_table_; }
  const RecognitionTable& recognition() const { return recognition_table_; }

  // Wakeup-side recognition consult: called where a direct delivery would
  // otherwise make `waiter` runnable. Returns true when a specialized
  // on_wakeup handler absorbed the wakeup — the waiter has been re-parked
  // and the caller must skip its ThreadSetrun/handoff. One predictable
  // branch (and no cycle charge) when recognition or the table is off.
  bool ConsultWakeupRecognition(Thread* waiter);

  // Observability safe point: called where virtual time has just advanced
  // (UserWork, the idle loop's event drain).
  void ObsTick() {
    if (obs_tick_armed_) {
      ObsTickSlow();
    }
  }

  // Per-continuation accounting (blocks / resumes / recognitions), active
  // only while a profiler is configured.
  void NoteContBlock(Continuation cont) {
    if (cont_accounting_ && cont != nullptr) {
      cont_registry_.NoteBlock(cont);
    }
  }
  void NoteContResume(Continuation cont) {
    if (cont_accounting_ && cont != nullptr) {
      cont_registry_.NoteResume(cont);
    }
  }
  void NoteContRecognition(Continuation cont) {
    if (cont_accounting_ && cont != nullptr) {
      cont_registry_.NoteRecognition(cont);
    }
  }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  KernelLatencyMetrics& lat() { return lat_; }
  IpcSpace& ipc() { return *ipc_; }
  VmSystem& vm() { return *vm_; }
  ExcStats& exc_stats() { return exc_stats_; }
  const ExcStats& exc_stats() const { return exc_stats_; }
  ExtState& ext() { return *ext_; }
  DeviceRegistry& devices() { return *devices_; }

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }
  const std::vector<std::unique_ptr<Thread>>& threads() const { return threads_; }

  // --- Scheduling helpers ------------------------------------------------
  // Places `thread` on a run queue (the paper's thread_setrun). The target
  // CPU is the thread's affinity home (last_cpu) unless the caller directs
  // it elsewhere with ThreadSetrunOn.
  void ThreadSetrun(Thread* thread);
  void ThreadSetrunOn(Thread* thread, int target_cpu);

  // Picks the next thread to run on the invoking CPU: best local runnable
  // thread, else one stolen from the busiest remote queue, else this CPU's
  // idle thread.
  Thread* ThreadSelect();

  // Removes a runnable thread from whichever CPU's queue holds it.
  void RunQueueRemove(Thread* thread);

  // --- Kernel stack allocation -------------------------------------------
  // Stack allocate/free routed through the invoking CPU's free-stack cache
  // (ncpu > 1), falling back to the global pool. With ncpu == 1 these are
  // exactly StackPool::Allocate/Free.
  KernelStack* AllocateStack();
  void FreeStack(KernelStack* stack);

  // Event-based waits (Mach's assert_wait/thread_wakeup). AssertWait marks
  // the current thread waiting on `event`; the caller then calls
  // ThreadBlock. Wakeup moves waiters to the run queue with `result`
  // deposited in their wait_result.
  void AssertWait(const void* event);
  // Removes the current thread from its wait bucket (e.g. condition already
  // satisfied after re-check).
  void ClearWait(Thread* thread);
  std::uint64_t ThreadWakeupAll(const void* event, KernReturn result = KernReturn::kSuccess);
  bool ThreadWakeupOne(const void* event, KernReturn result = KernReturn::kSuccess);

  // --- Thread lifecycle --------------------------------------------------
  // Ends the current thread; called from the thread-exit syscall path.
  [[noreturn]] void ThreadTerminateSelf();

  // Destroys a task: aborts and reaps all of its threads (wherever they are
  // blocked) and kills its ports. If the current thread belongs to `task`
  // this call does not return.
  void TerminateTask(Task* task);

  // --- Multi-node cluster hooks (src/net/) -------------------------------
  // Installed by the cluster driver on member kernels; never set for a
  // standalone machine. The netipc server is per-node and owned by the
  // driver — the kernel only holds a borrowed pointer so protocol
  // continuations can reach their server through ActiveKernel().
  void SetClusterArbiter(ClusterArbiter* arbiter) { cluster_ = arbiter; }
  void SetNetIpc(NetIpc* netipc) { netipc_ = netipc; }
  NetIpc* netipc() { return netipc_; }

  // True when some thread could run right now (any CPU's queue non-empty).
  // The cluster driver uses this to pick which parked node to resume.
  bool HasRunnableWork() const {
    for (const auto& cpu : cpus_) {
      if (!cpu->run_queue.Empty()) {
        return true;
      }
    }
    return false;
  }

  // --- Liveness / shutdown ----------------------------------------------
  std::uint64_t live_threads() const { return live_threads_; }

  // The idle path: drains virtual-time events while nothing is runnable and
  // ends the simulation when no liveness-holding thread remains.
  [[noreturn]] void IdleLoop();

  // Runs every event whose virtual deadline has passed. Called from the
  // clock-advancing safe points (UserWork) — the simulation's "device
  // interrupt delivery" — so pending I/O completes even while some thread
  // keeps the processor busy. Returns the number of events run.
  std::uint64_t RunDueEvents();

  // Charges machine time for a primitive (machine/cycle_model.h): kernel
  // work advances the invoking CPU's virtual clock just like user work does.
  void ChargeCycles(std::uint64_t cycles) {
    current_cpu_->clock.Advance(cycles);
    machine_cycles_ += cycles;
  }
  std::uint64_t machine_cycles() const { return machine_cycles_; }

  // Timestamp source for latency stamps that may be consumed on a different
  // CPU than the one that set them (block-to-resume, fault/exc service, RPC
  // round trips): the machine frontier is monotonic across migrations where
  // a single CPU's clock is not. Equal to clock().Now() when ncpu == 1.
  Ticks LatencyNow() const { return VirtualTime(); }

  // The interleave safe point (the multi-CPU analog of the clock interrupt):
  // hands the host thread to the next CPU round-robin once the invoking CPU
  // has run for config.cpu_slice local ticks. No-op when ncpu == 1.
  void CpuInterleaveTick();

  // Statistics helpers for benches.
  void ResetStats();

 private:
  friend class KernelTestPeer;

  void BootIfNeeded();
  void RegisterMetrics();
  void RegisterContinuations();
  void ObsTickSlow();
  void TickSnapshotsBeforeSlo();
  Thread* AllocateThread();
  [[noreturn]] void ReaperLoop();

  // --- SMP interleave internals -----------------------------------------
  // First placement of a newly created thread on a run queue.
  void EnqueueNewThread(Thread* thread, int home_cpu = -1);
  // Suspends the invoking CPU's guest flow and resumes `target`'s.
  void SwitchToCpu(int target);
  // True when some other CPU's run queue has a thread to steal.
  bool StealableWorkExists() const;
  // True when every CPU other than the invoking one is parked in its idle
  // yield point (their suspended contexts hold no in-progress work).
  bool OtherCpusParked() const;
  // Ends the simulation from the idle loop: parks every idle thread, frees
  // their stacks, and jumps back to the host context saved by Run().
  [[noreturn]] void ShutdownFromIdle();

  static void IdleContinuation();
  static void ReaperBootstrap();
  static void UserBootstrapContinuation();
  static void HaltedContinuation();

  KernelConfig config_;
  // The simulated CPUs (stable addresses: the metrics registry holds views
  // into their counters) and the one currently executing. cpus_[0] exists
  // for the kernel's whole life so pre-Run paths (thread creation, traces)
  // have a processor to stand on.
  std::vector<std::unique_ptr<Processor>> cpus_;
  Processor* current_cpu_ = nullptr;
  int next_place_cpu_ = 0;  // Round-robin cursor for first placements.
  Context boot_ctx_;        // Host context to resume when the machine stops.
  KernelStack* shutdown_stack_ = nullptr;  // Shutdown flow's own stack; the
                                           // boot flow frees it post-jump.
  StackPool stack_pool_;
  CostModel cost_model_;
  TransferStats transfer_stats_;
  ExcStats exc_stats_;
  EventQueue events_;
  Rng rng_;
  TraceBuffer trace_;

  MetricsRegistry metrics_;
  KernelLatencyMetrics lat_;

  // Continuation-aware observability (src/obs/). The profiler, snapshot
  // emitter and watchdog exist only when their config knobs are non-zero;
  // obs_tick_armed_ and cont_accounting_ cache "is anything on?" for the
  // inline fast paths.
  ContinuationRegistry cont_registry_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<SnapshotEmitter> snapshots_;
  std::unique_ptr<StallWatchdog> watchdog_;
  std::unique_ptr<SloTracker> slo_;
  bool obs_tick_armed_ = false;
  bool cont_accounting_ = false;
  // Span machinery runs when a trace ring OR the SLO tracker wants spans;
  // false keeps span ids 0 everywhere (the pre-span byte-identity contract).
  bool spans_armed_ = false;

  // Generalized recognition: specialized resume handlers (kern/recognition.h).
  RecognitionTable recognition_table_;

  std::unique_ptr<IpcSpace> ipc_;
  std::unique_ptr<VmSystem> vm_;
  std::unique_ptr<ExtState> ext_;
  std::unique_ptr<DeviceRegistry> devices_;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<Thread>> threads_;
  ThreadId next_thread_id_ = 1;
  TaskId next_task_id_ = 1;
  std::uint32_t next_span_id_ = 1;  // Monotonic causal-span allocator.

  ClusterArbiter* cluster_ = nullptr;  // Set only on clustered kernels.
  NetIpc* netipc_ = nullptr;           // Per-node netmsg server (borrowed).

  std::uint64_t live_threads_ = 0;  // Non-daemon user threads still alive.
  std::uint64_t machine_cycles_ = 0;  // Modeled kernel machine time.
  bool booted_ = false;
  bool running_ = false;

  // Wait-event hash table (assert_wait buckets).
  static constexpr int kWaitBuckets = 64;
  IntrusiveQueue<Thread, &Thread::run_link> wait_buckets_[kWaitBuckets];

  // Halted threads queued for the reaper — the internal kernel thread that
  // never blocks with a continuation (§3.4 footnote: the one constant
  // per-machine stack).
  IntrusiveQueue<Thread, &Thread::run_link> reaper_queue_;
  Thread* reaper_thread_ = nullptr;

  static int WaitBucket(const void* event);
};

namespace kernel_detail {
// Set by Kernel::Run for its duration; read only through the accessors below.
extern Kernel* g_active_kernel;
}  // namespace kernel_detail

// Ambient access to the machine currently executing on this host thread.
// Valid only while a Kernel::Run() is in progress (all kernel paths and
// simulated user code run within one). Inline: every trap, block and
// transfer reads them several times.
inline Kernel& ActiveKernel() {
  MKC_ASSERT_MSG(kernel_detail::g_active_kernel != nullptr,
                 "no kernel is running on this host thread");
  return *kernel_detail::g_active_kernel;
}

inline Thread* CurrentThread() {
  Thread* t = ActiveKernel().processor().active_thread;
  MKC_ASSERT(t != nullptr);
  return t;
}

inline bool KernelIsActive() { return kernel_detail::g_active_kernel != nullptr; }

}  // namespace mkc

#endif  // MACHCONT_SRC_KERN_KERNEL_H_
