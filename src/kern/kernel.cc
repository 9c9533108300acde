#include "src/kern/kernel.h"

#include <cstdlib>
#include <cstdio>
#include <cstring>

#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/dev/device.h"
#include "src/exc/exception.h"
#include "src/ext/ext_state.h"
#include "src/ext/upcall.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/machine/cycle_model.h"
#include "src/machine/machdep.h"
#include "src/machine/trap.h"
#include "src/obs/profiler.h"
#include "src/obs/slo.h"
#include "src/obs/snapshot.h"
#include "src/obs/watchdog.h"
#include "src/task/task.h"
#include "src/vm/vm_system.h"

namespace mkc {

Kernel* kernel_detail::g_active_kernel = nullptr;

namespace {

// Per-CPU free-stack cache depth (ncpu > 1 only); overflow goes to the
// global pool governed by KernelConfig::stack_cache_limit.
constexpr std::size_t kCpuStackCacheLimit = 8;

// Stack-pool observer: emits a kStackPoolSize counter event after every
// Allocate/Free. Installed only when tracing is enabled, so a disabled trace
// costs the pool nothing (not even the null check it would otherwise share).
void StackPoolTraceHook(void* ctx, std::uint64_t in_use, std::uint64_t cached) {
  auto* k = static_cast<Kernel*>(ctx);
  Thread* t = k->processor().active_thread;
  k->trace().Record(k->TraceNow(), t != nullptr ? t->id : 0, TraceEvent::kStackPoolSize,
                    static_cast<std::uint32_t>(in_use), static_cast<std::uint32_t>(cached),
                    t != nullptr ? t->span_id : 0,
                    static_cast<std::uint16_t>(k->processor().id));
}

}  // namespace

const char* ModelName(ControlTransferModel model) {
  switch (model) {
    case ControlTransferModel::kMach25:
      return "Mach 2.5";
    case ControlTransferModel::kMK32:
      return "MK32";
    case ControlTransferModel::kMK40:
      return "MK40";
  }
  return "unknown";
}

Kernel::Kernel(const KernelConfig& config)
    : config_(config),
      stack_pool_(config.kernel_stack_bytes, config.stack_cache_limit),
      rng_(config.seed) {
  if (config_.ncpu < 1) {
    config_.ncpu = 1;
  }
  if (config_.ncpu > kMaxCpus) {
    config_.ncpu = kMaxCpus;
  }
  for (int i = 0; i < config_.ncpu; ++i) {
    cpus_.push_back(std::make_unique<Processor>());
    cpus_.back()->id = i;
    cpus_.back()->run_queue.set_cpu(i);
  }
  current_cpu_ = cpus_[0].get();
  if (config_.node_id > 0) {
    // Partition the span-id space by node so one RPC's cross-node span chain
    // never collides with another node's spans. Node 0 keeps the legacy base
    // (1), so a single machine is byte-identical to the pre-cluster kernel.
    next_span_id_ = (static_cast<std::uint32_t>(config_.node_id) << 24) + 1;
  }
  trace_.Configure(config.trace_capacity);
  if (trace_.enabled()) {
    stack_pool_.SetTraceHook(&StackPoolTraceHook, this);
  }
  ipc_ = std::make_unique<IpcSpace>(*this);
  vm_ = std::make_unique<VmSystem>(*this, config.physical_pages, config.disk_latency);
  ext_ = std::make_unique<ExtState>(*this);
  devices_ = std::make_unique<DeviceRegistry>(*this);
  RegisterMetrics();  // After the subsystems exist: counters are views.
  RegisterContinuations();
  // Generalized recognition (kern/recognition.h): core specialized resume
  // handlers, registered in hotness order so the mach_msg fast path is
  // literally the first table entry. They register in every configuration
  // (enable_recognition gates each consult); netipc's two wakeup handlers
  // are added when a cluster constructs it.
  RegisterIpcRecognition(recognition_table_);
  RegisterExceptionRecognition(recognition_table_);
  VmSystem::RegisterRecognition(recognition_table_);
  if (config_.profile_interval > 0) {
    profiler_ = std::make_unique<Profiler>(config_.profile_interval);
  }
  if (config_.snapshot_interval > 0) {
    snapshots_ = std::make_unique<SnapshotEmitter>(config_.snapshot_interval);
  }
  if (config_.watchdog_threshold > 0) {
    watchdog_ = std::make_unique<StallWatchdog>(config_.watchdog_threshold);
  }
  obs_tick_armed_ = profiler_ != nullptr || snapshots_ != nullptr || watchdog_ != nullptr;
  // Per-continuation accounting follows the profiler: the recognition-rate
  // table (machcont_sim --report) is profiler output, and keeping the
  // counters dark otherwise preserves the zero-overhead-off guarantee.
  cont_accounting_ = profiler_ != nullptr;
  if (config_.slo_window > 0) {
    SloConfig slo_config;
    slo_config.window = config_.slo_window;
    slo_ = std::make_unique<SloTracker>(slo_config);
    // The "slo" block rides in the metrics dump only while armed, so a dump
    // with the plane off stays byte-identical to a pre-SLO build.
    metrics_.SetJsonBlock("slo",
                          [this] { return slo_->JsonBlock(VirtualTime()); });
  }
  // Spans run for the trace ring or the SLO tracker; with neither, span ids
  // stay 0 and every span site is one predictable branch.
  spans_armed_ = trace_.enabled() || slo_ != nullptr;
  if (trace_.enabled() && slo_ != nullptr) {
    TailSamplingConfig tail;
    tail.enabled = true;
    trace_.ConfigureTailSampling(tail);
  }
}

void Kernel::RegisterMetrics() {
  metrics_.SetLabel("model", ModelName(config_.model));
  metrics_.SetLabel("seed", std::to_string(config_.seed));

  // Control transfers (Tables 1 and 2).
  for (int i = 0; i < static_cast<int>(BlockReason::kCount); ++i) {
    auto reason = static_cast<BlockReason>(i);
    if (reason == BlockReason::kIdle) {
      continue;  // Idle blocks live under xfer.idle_blocks.
    }
    const char* slug = BlockReasonSlug(reason);
    metrics_.RegisterCounter(std::string("xfer.blocks.") + slug,
                             &transfer_stats_.by_reason[i].blocks);
    metrics_.RegisterCounter(std::string("xfer.discards.") + slug,
                             &transfer_stats_.by_reason[i].discards);
    lat_.block_to_resume[i] =
        metrics_.RegisterHistogram(std::string("lat.block_to_resume.") + slug);
  }
  metrics_.RegisterCounter("xfer.total_blocks", &transfer_stats_.total_blocks);
  metrics_.RegisterCounter("xfer.stack_handoffs", &transfer_stats_.stack_handoffs);
  metrics_.RegisterCounter("xfer.recognitions", &transfer_stats_.recognitions);
  // Wakeup-side recognitions happen only under MK40 with recognition on.
  if (config_.model == ControlTransferModel::kMK40 && config_.enable_recognition) {
    metrics_.RegisterCounter("xfer.wakeup_recognitions",
                             &transfer_stats_.wakeup_recognitions);
  }
  metrics_.RegisterCounter("xfer.idle_blocks", &transfer_stats_.idle_blocks);

  IpcStats& ipc_stats = ipc_->stats();
  metrics_.RegisterCounter("ipc.messages_sent", &ipc_stats.messages_sent);
  metrics_.RegisterCounter("ipc.fast_rpc_handoffs", &ipc_stats.fast_rpc_handoffs);
  metrics_.RegisterCounter("ipc.direct_copies", &ipc_stats.direct_copies);
  metrics_.RegisterCounter("ipc.queued_sends", &ipc_stats.queued_sends);
  metrics_.RegisterCounter("ipc.receive_recognitions", &ipc_stats.receive_recognitions);
  metrics_.RegisterCounter("ipc.slow_continuations", &ipc_stats.slow_continuations);
  metrics_.RegisterCounter("ipc.rcv_too_large", &ipc_stats.rcv_too_large);
  metrics_.RegisterCounter("ipc.kmsg_alloc_blocks", &ipc_stats.kmsg_alloc_blocks);
  metrics_.RegisterCounter("ipc.send_full_blocks", &ipc_stats.send_full_blocks);

  metrics_.RegisterCounter("exc.raised", &exc_stats_.raised);
  metrics_.RegisterCounter("exc.fast_deliveries", &exc_stats_.fast_deliveries);
  metrics_.RegisterCounter("exc.queued_deliveries", &exc_stats_.queued_deliveries);
  metrics_.RegisterCounter("exc.replies", &exc_stats_.replies);
  metrics_.RegisterCounter("exc.fast_replies", &exc_stats_.fast_replies);
  metrics_.RegisterCounter("exc.unhandled", &exc_stats_.unhandled);

  VmStats& vm_stats = vm_->stats();
  metrics_.RegisterCounter("vm.user_faults", &vm_stats.user_faults);
  metrics_.RegisterCounter("vm.fast_faults", &vm_stats.fast_faults);
  metrics_.RegisterCounter("vm.zero_fills", &vm_stats.zero_fills);
  metrics_.RegisterCounter("vm.pageins", &vm_stats.pageins);
  metrics_.RegisterCounter("vm.fault_blocks", &vm_stats.fault_blocks);
  metrics_.RegisterCounter("vm.busy_waits", &vm_stats.busy_waits);
  metrics_.RegisterCounter("vm.kernel_faults", &vm_stats.kernel_faults);
  metrics_.RegisterCounter("vm.pageouts", &vm_stats.pageouts);
  metrics_.RegisterCounter("vm.protection_exceptions", &vm_stats.protection_exceptions);

  const StackPoolStats& sp = stack_pool_.stats();
  metrics_.RegisterCounter("stack.allocs", &sp.allocs);
  metrics_.RegisterCounter("stack.frees", &sp.frees);
  metrics_.RegisterCounter("stack.cache_hits", &sp.cache_hits);
  metrics_.RegisterCounter("stack.created", &sp.created);
  metrics_.RegisterCounter("stack.destroyed", &sp.destroyed);
  metrics_.RegisterCounter("stack.samples", &sp.samples);
  metrics_.RegisterCounter("stack.sample_sum", &sp.sample_sum);
  metrics_.RegisterGauge("stack.in_use", &sp.in_use);
  metrics_.RegisterGauge("stack.max_in_use", &sp.max_in_use);
  metrics_.RegisterGauge("stack.max_cached", &sp.max_cached);

  for (Zone* zone : {&ipc_->kmsg_small_zone(), &ipc_->kmsg_full_zone()}) {
    const ZoneStats& zs = zone->stats();
    std::string prefix = "zone." + zone->name() + ".";
    metrics_.RegisterCounter(prefix + "allocs", &zs.allocs);
    metrics_.RegisterCounter(prefix + "frees", &zs.frees);
    metrics_.RegisterCounter(prefix + "magazine_hits", &zs.magazine_hits);
    metrics_.RegisterCounter(prefix + "refills", &zs.refills);
    metrics_.RegisterCounter(prefix + "flushes", &zs.flushes);
    metrics_.RegisterCounter(prefix + "created", &zs.created);
    metrics_.RegisterCounter(prefix + "alloc_cycles", &zs.alloc_cycles);
    metrics_.RegisterGauge(prefix + "in_use", &zs.in_use);
    metrics_.RegisterGauge(prefix + "high_water", &zs.high_water);
  }

  lat_.transfer_handoff = metrics_.RegisterHistogram("lat.transfer.handoff");
  lat_.transfer_switch = metrics_.RegisterHistogram("lat.transfer.switch");
  lat_.rpc_round_trip = metrics_.RegisterHistogram("lat.rpc.round_trip");
  lat_.fault_service = metrics_.RegisterHistogram("lat.vm.fault_service");
  lat_.exc_service = metrics_.RegisterHistogram("lat.exc.service");

  // Scheduler latencies. On a uniprocessor the machine-wide histograms are
  // the recording storage; on a multiprocessor each CPU records into its own
  // shard and the machine-wide names are merged views over the shards, so
  // cross-CPU percentiles are exact without double-counting.
  if (config_.ncpu == 1) {
    Processor& cpu0 = *cpus_[0];
    cpu0.lat_wakeup_to_run = metrics_.RegisterHistogram("lat.sched.wakeup_to_run");
    cpu0.lat_runq_wait = metrics_.RegisterHistogram("lat.sched.runq_wait");
    cpu0.lat_steal = metrics_.RegisterHistogram("lat.sched.steal");
  }

  // Per-CPU counters exist only on a multiprocessor: a uniprocessor's
  // metrics JSON must stay byte-identical to the pre-SMP kernel's.
  if (config_.ncpu > 1) {
    metrics_.SetLabel("cpus", std::to_string(config_.ncpu));
    std::vector<const LatencyHistogram*> wakeup_shards;
    std::vector<const LatencyHistogram*> runq_shards;
    std::vector<const LatencyHistogram*> steal_shards;
    for (int i = 0; i < config_.ncpu; ++i) {
      Processor& cpu = *cpus_[static_cast<std::size_t>(i)];
      std::string prefix = "cpu" + std::to_string(i) + ".";
      metrics_.RegisterCounter(prefix + "sched.local_dequeues", &cpu.local_dequeues);
      metrics_.RegisterCounter(prefix + "sched.steals", &cpu.steals);
      metrics_.RegisterCounter(prefix + "sched.idle_yields", &cpu.idle_yields);
      metrics_.RegisterCounter(prefix + "sched.idle_ticks", &cpu.idle_ticks);
      metrics_.RegisterCounter(prefix + "stack.cache_hits", &cpu.stack_cache_hits);
      metrics_.RegisterCounter(prefix + "stack.cache_misses", &cpu.stack_cache_misses);
      for (Zone* zone : {&ipc_->kmsg_small_zone(), &ipc_->kmsg_full_zone()}) {
        const ZoneCpuStats& shard = zone->cpu_stats(i);
        std::string zprefix = prefix + "zone." + zone->name() + ".";
        metrics_.RegisterCounter(zprefix + "magazine_hits", &shard.magazine_hits);
        metrics_.RegisterCounter(zprefix + "refills", &shard.refills);
        metrics_.RegisterCounter(zprefix + "flushes", &shard.flushes);
      }
      cpu.lat_wakeup_to_run = metrics_.RegisterHistogram(prefix + "lat.sched.wakeup_to_run");
      cpu.lat_runq_wait = metrics_.RegisterHistogram(prefix + "lat.sched.runq_wait");
      cpu.lat_steal = metrics_.RegisterHistogram(prefix + "lat.sched.steal");
      wakeup_shards.push_back(cpu.lat_wakeup_to_run);
      runq_shards.push_back(cpu.lat_runq_wait);
      steal_shards.push_back(cpu.lat_steal);
    }
    metrics_.RegisterMergedHistogram("lat.sched.wakeup_to_run", std::move(wakeup_shards));
    metrics_.RegisterMergedHistogram("lat.sched.runq_wait", std::move(runq_shards));
    metrics_.RegisterMergedHistogram("lat.sched.steal", std::move(steal_shards));
  }
}

Kernel::~Kernel() {
  // Drain every intrusive queue and release machine resources. Nothing is
  // executing at this point; bypass the machdep layer (it requires an
  // active kernel).
  for (auto& cpu : cpus_) {
    while (cpu->run_queue.DequeueBest() != nullptr) {
    }
    while (KernelStack* stack = cpu->stack_cache.DequeueHead()) {
      delete stack;  // Cached per-CPU stacks are free memory, like the pool's.
    }
  }
  for (auto& bucket : wait_buckets_) {
    while (bucket.DequeueHead() != nullptr) {
    }
  }
  while (reaper_queue_.DequeueHead() != nullptr) {
  }
  ipc_.reset();  // Drops port queues (which link threads via ipc_link).
  ext_.reset();  // Drops the upcall pool (parked threads, also via ipc_link).
  // threads_ is declared after tasks_ and so destructs first; unthread the
  // task membership queues now or ~Task would walk freed Thread objects.
  for (auto& task : tasks_) {
    while (task->threads.DequeueHead() != nullptr) {
    }
  }
  for (auto& thread : threads_) {
    if (thread->kernel_stack != nullptr) {
      KernelStack* stack = thread->kernel_stack;
      thread->kernel_stack = nullptr;
      stack->owner = nullptr;
      stack_pool_.Free(stack);
    }
    if (thread->md.user_stack != nullptr) {
      std::free(thread->md.user_stack);
      thread->md.user_stack = nullptr;
    }
  }
}

Thread* Kernel::AllocateThread() {
  auto thread = std::make_unique<Thread>();
  thread->id = next_thread_id_++;
  threads_.push_back(std::move(thread));
  return threads_.back().get();
}

Task* Kernel::CreateTask(std::string name) {
  auto task = std::make_unique<Task>();
  task->id = next_task_id_++;
  task->name = std::move(name);
  task->kernel = this;
  tasks_.push_back(std::move(task));
  return tasks_.back().get();
}

Thread* Kernel::CreateUserThread(Task* task, UserEntry entry, void* arg,
                                 const ThreadOptions& options) {
  MKC_ASSERT(task != nullptr);
  Thread* thread = AllocateThread();
  thread->task = task;
  thread->name = task->name;
  thread->priority = options.priority;
  thread->counts_for_liveness = !options.daemon;
  task->threads.EnqueueTail(thread);

  std::size_t stack_bytes =
      options.user_stack_bytes != 0 ? options.user_stack_bytes : config_.user_stack_bytes;
  thread->md.user_stack = std::malloc(stack_bytes);
  MKC_ASSERT(thread->md.user_stack != nullptr);
  thread->md.user_stack_size = stack_bytes;
  // Entry point and argument ride in the simulated register file, the way a
  // real kernel seeds a new thread's argument registers.
  thread->md.user_regs[0] = reinterpret_cast<std::uint64_t>(entry);
  thread->md.user_regs[1] = reinterpret_cast<std::uint64_t>(arg);

  // New threads hold a continuation and no kernel stack: they consume no
  // kernel memory until first run.
  thread->continuation = &Kernel::UserBootstrapContinuation;
  if (thread->counts_for_liveness) {
    ++live_threads_;
  }
  EnqueueNewThread(thread, options.home_cpu);
  return thread;
}

void Kernel::EnqueueNewThread(Thread* thread, int home_cpu) {
  if (home_cpu >= 0 && home_cpu < config_.ncpu) {
    thread->last_cpu = home_cpu;
  } else {
    thread->last_cpu = next_place_cpu_;
    next_place_cpu_ = (next_place_cpu_ + 1) % config_.ncpu;
  }
  cpus_[static_cast<std::size_t>(thread->last_cpu)]->run_queue.Enqueue(thread);
}

namespace {

// Outer loop for internal kernel threads under the process-model kernels,
// where the body's ThreadBlock returns instead of re-entering the body as a
// continuation.
void KernelThreadRunner() {
  Thread* self = CurrentThread();
  Continuation body = self->kthread_body;
  MKC_ASSERT(body != nullptr);
  for (;;) {
    body();
  }
}

// First activation of a user thread: manufacture its user-mode context and
// "return" into it.
void UserModeStart(void* /*pass*/, void* arg) {
  auto* thread = static_cast<Thread*>(arg);
  auto entry = reinterpret_cast<UserEntry>(thread->md.user_regs[0]);
  void* user_arg = reinterpret_cast<void*>(thread->md.user_regs[1]);
  entry(user_arg);
  // Falling off the end of a user thread exits it.
  TrapFrame frame;
  frame.kind = TrapKind::kSyscall;
  frame.number = Syscall::kThreadExit;
  TrapEnter(&frame);
  Panic("thread-exit trap returned");
}

}  // namespace

Thread* Kernel::CreateKernelThread(std::string name, Continuation loop, int priority) {
  Thread* thread = AllocateThread();
  thread->name = std::move(name);
  thread->is_internal = true;
  thread->counts_for_liveness = false;
  thread->priority = priority;
  thread->kthread_body = loop;
  thread->continuation = &KernelThreadRunner;
  EnqueueNewThread(thread);
  return thread;
}

void Kernel::RegisterContinuations() {
  // Every continuation the core kernel can block with, under the name a
  // profile or watchdog report should print. Subsystems constructed later
  // (NetIpc) and workload-private continuations register themselves; an
  // unregistered pointer degrades to a catch-all bucket, never a crash.
  cont_registry_.Register(&MachMsgContinue, "mach_msg_continue");
  cont_registry_.Register(&MachMsgSlowContinue, "mach_msg_slow_continue");
  cont_registry_.Register(&ExceptionReplyContinue, "exception_reply_continue");
  cont_registry_.Register(&VmSystem::VmFaultRetryContinue, "vm_fault_retry_continue");
  cont_registry_.Register(&VmSystem::VmFaultMapContinue, "vm_fault_map_continue");
  cont_registry_.Register(&VmSystem::PagerStep, "vm_pager_step");
  UpcallPool::RegisterContinuations(cont_registry_);
  cont_registry_.Register(&Kernel::IdleContinuation, "idle_continuation");
  cont_registry_.Register(&Kernel::UserBootstrapContinuation, "user_bootstrap");
  cont_registry_.Register(&Kernel::HaltedContinuation, "thread_halted");
  cont_registry_.Register(&Kernel::ReaperBootstrap, "reaper_loop");
  cont_registry_.Register(&KernelThreadRunner, "kernel_thread_runner");
  RegisterSyscallContinuations(cont_registry_);
  RegisterTrapContinuations(cont_registry_);
}

bool Kernel::ConsultWakeupRecognition(Thread* waiter) {
  if (!config_.enable_recognition) {
    return false;
  }
  RecognitionEntry* entry = recognition_table_.Find(waiter->continuation);
  if (entry == nullptr || entry->on_wakeup == nullptr) {
    return false;
  }
  // The consult is on the books only once a wakeup specialization exists for
  // this continuation; plain receivers pay nothing here.
  ChargeCycles(kCycRecognitionCheck);
  if (entry->on_wakeup(*this, waiter)) {
    ++entry->wakeup_hits;
    ++transfer_stats_.wakeup_recognitions;
    return true;
  }
  ++entry->declines;
  return false;
}

void Kernel::ObsTickSlow() {
  if (profiler_ != nullptr) {
    profiler_->Tick(*this);
  }
  if (watchdog_ != nullptr) {
    watchdog_->Tick(*this);
  }
  if (snapshots_ != nullptr) {
    snapshots_->Tick(*this);
  }
}

void Kernel::BootIfNeeded() {
  if (booted_) {
    return;
  }
  booted_ = true;

  for (auto& cpu : cpus_) {
    Thread* idle = AllocateThread();
    idle->name = "idle";
    idle->is_idle = true;
    idle->is_internal = true;
    idle->counts_for_liveness = false;
    idle->priority = 0;
    idle->state = ThreadState::kWaiting;
    idle->continuation = &Kernel::IdleContinuation;
    idle->last_cpu = cpu->id;
    cpu->idle_thread = idle;
  }

  // The reaper: the paper's internal kernel thread that never blocks with a
  // continuation (§3.4 footnote 3) — the one constant per-machine stack.
  reaper_thread_ = CreateKernelThread("reaper", &Kernel::ReaperBootstrap, kNumPriorities - 1);

  // The default pager: an internal kernel thread whose body blocks with
  // itself as its continuation (§2.2's tail-recursive loop).
  CreateKernelThread("pager", &VmSystem::PagerStep, kNumPriorities - 2);
}

void Kernel::Run() {
  MKC_ASSERT_MSG(kernel_detail::g_active_kernel == nullptr,
                 "a kernel is already running (no nesting)");
  MKC_ASSERT(!running_);
  kernel_detail::g_active_kernel = this;
  running_ = true;

  BootIfNeeded();

  // Start every processor: give each idle thread a stack and park the
  // resulting fresh context as the CPU's suspended guest flow. Boot costs
  // are charged to each CPU's own clock.
  for (auto& cpu : cpus_) {
    current_cpu_ = cpu.get();
    Thread* idle = cpu->idle_thread;
    cpu->active_thread = idle;
    idle->state = ThreadState::kRunning;
    KernelStack* stack = AllocateStack();
    StackAttach(idle, stack, &ThreadContinue);
    cpu->resume_ctx = idle->md.kernel_ctx;
    idle->md.kernel_ctx.reset();
  }

  // Enter CPU 0. The other CPUs first run when its idle loop (or a slice
  // expiry) hands the host onward.
  current_cpu_ = cpus_[0].get();
  Context target = current_cpu_->resume_ctx;
  current_cpu_->resume_ctx.reset();
  ContextSwitch(&boot_ctx_, target, /*pass=*/nullptr);

  // A CPU's idle loop jumped back: simulation over. Free the stack the
  // shutdown flow was still standing on when it jumped here.
  if (shutdown_stack_ != nullptr) {
    stack_pool_.Free(shutdown_stack_);
    shutdown_stack_ = nullptr;
  }
  running_ = false;
  kernel_detail::g_active_kernel = nullptr;
}

void Kernel::SwitchToCpu(int target) {
  Processor& from = *current_cpu_;
  Processor& to = *cpus_[static_cast<std::size_t>(target)];
  if (&to == &from) {
    return;
  }
  MKC_ASSERT_MSG(to.resume_ctx.valid(), "target CPU has no suspended context");
  // Refresh the target's slice so it gets a full turn; we resume (much)
  // later, when some CPU hands the host back to us.
  to.slice_start = to.clock.Now();
  current_cpu_ = &to;
  Context target_ctx = to.resume_ctx;
  to.resume_ctx.reset();
  ContextSwitch(&from.resume_ctx, target_ctx, /*pass=*/nullptr);
  // Resumed: whoever switched back to us set current_cpu_ = &from first.
  MKC_ASSERT(current_cpu_ == &from);
}

void Kernel::CpuInterleaveTick() {
  if (config_.ncpu == 1) {
    return;
  }
  Processor& cpu = *current_cpu_;
  if (cpu.clock.Now() - cpu.slice_start < config_.cpu_slice) {
    return;
  }
  SwitchToCpu((cpu.id + 1) % config_.ncpu);
}

bool Kernel::StealableWorkExists() const {
  for (const auto& cpu : cpus_) {
    if (cpu.get() != current_cpu_ && !cpu->run_queue.Empty()) {
      return true;
    }
  }
  return false;
}

bool Kernel::OtherCpusParked() const {
  for (const auto& cpu : cpus_) {
    if (cpu.get() != current_cpu_ && !cpu->in_idle_wait) {
      return false;
    }
  }
  return true;
}

void Kernel::IdleContinuation() { ActiveKernel().IdleLoop(); }

[[noreturn]] void Kernel::IdleLoop() {
  Processor& cpu = processor();
  Thread* idle = cpu.idle_thread;
  MKC_ASSERT(CurrentThread() == idle);
  for (;;) {
    // Wait until this CPU has something to run: a local thread, or a remote
    // one it can steal (ThreadSelect does the actual stealing).
    while (cpu.run_queue.Empty() && !StealableWorkExists()) {
      if (cluster_ == nullptr && live_threads_ == 0 && OtherCpusParked()) {
        ShutdownFromIdle();
      }
      if (config_.ncpu > 1 && !OtherCpusParked()) {
        // Another CPU is still executing: lend it the host thread. We are
        // resumed round-robin and re-check from the top.
        ++cpu.idle_yields;
        cpu.in_idle_wait = true;
        SwitchToCpu((cpu.id + 1) % config_.ncpu);
        cpu.in_idle_wait = false;
        continue;
      }
      if (cluster_ != nullptr) {
        // Clustered machine: the whole node is idle. Whether to drain our
        // next event or to park (return from Run()) so a sibling node runs
        // first is the cluster driver's call — it owns the global time
        // frontier. Liveness is also cluster-wide; a pure-server node with
        // zero local user threads must keep parking, not shut down.
        if (events_.Empty() || !cluster_->MayRunNextEvent(*this)) {
          ShutdownFromIdle();
        }
      } else if (events_.Empty()) {
        for (const auto& t : threads_) {
          std::fprintf(stderr,
                       "  thread %u state=%d reason=%s cont=%p stack=%p internal=%d idle=%d "
                       "wait_event=%p\n",
                       t->id, static_cast<int>(t->state), BlockReasonName(t->block_reason),
                       reinterpret_cast<void*>(t->continuation),
                       static_cast<void*>(t->kernel_stack), t->is_internal ? 1 : 0,
                       t->is_idle ? 1 : 0, t->wait_event);
        }
        Panic("deadlock: %llu live threads, nothing runnable, no pending events",
              static_cast<unsigned long long>(live_threads_));
      }
      // Whole machine idle but time-driven work is pending: skip this CPU's
      // clock forward to the next deadline and run it.
      Ticks before = cpu.clock.Now();
      events_.RunNext(cpu.clock);
      cpu.idle_ticks += cpu.clock.Now() - before;
      // The frontier just jumped; give the observers (profiler, watchdog) a
      // chance to fire. A whole-machine-idle stretch is exactly when a stall
      // would otherwise go unnoticed.
      ObsTick();
    }
    // Someone is runnable: give up the processor until the queue drains.
    idle->state = ThreadState::kWaiting;
    ThreadBlock(&Kernel::IdleContinuation, BlockReason::kIdle);
    // Process-model kernels return here once the idle thread is reselected.
  }
}

[[noreturn]] void Kernel::ShutdownFromIdle() {
  // Simulation complete. Every other CPU is parked at its idle yield point,
  // so their suspended contexts contain nothing but the idle loop — park
  // each idle thread for the next Run() and free its stack. The invoking
  // CPU's own stack free is safe: nothing allocates before the jump.
  Thread* self = CurrentThread();
  for (auto& cpu : cpus_) {
    Thread* idle = cpu->idle_thread;
    idle->continuation = &Kernel::IdleContinuation;
    idle->state = ThreadState::kWaiting;
    cpu->resume_ctx.reset();
    cpu->in_idle_wait = false;
    if (idle->kernel_stack != nullptr) {
      KernelStack* stack = StackDetach(idle);
      if (idle == self) {
        // Still executing on this one — freeing it here would run the rest
        // of StackPool::Free on freed memory. The boot flow frees it.
        shutdown_stack_ = stack;
      } else {
        stack_pool_.Free(stack);
      }
    }
    idle->md.kernel_ctx.reset();
  }
  ContextJump(boot_ctx_, nullptr);
}

void Kernel::ReaperBootstrap() { ActiveKernel().ReaperLoop(); }

[[noreturn]] void Kernel::ReaperLoop() {
  Thread* self = CurrentThread();
  MKC_ASSERT(self == reaper_thread_);
  for (;;) {
    while (Thread* dead = reaper_queue_.DequeueHead()) {
      MKC_ASSERT(dead->state == ThreadState::kHalted);
      if (dead->kernel_stack != nullptr) {
        // Process-model kernels: the dead thread still owns its stack.
        KernelStack* stack = StackDetach(dead);
        FreeStack(stack);
      }
      if (dead->md.user_stack != nullptr) {
        std::free(dead->md.user_stack);
        dead->md.user_stack = nullptr;
      }
      dead->md.user_ctx.reset();
      dead->md.kernel_ctx.reset();
    }
    AssertWait(&reaper_queue_);
    // Deliberately no continuation: this is the thread whose control flow
    // makes continuations awkward, so it keeps its stack while blocked —
    // the ".002" in the paper's 2.002 average stacks.
    ThreadBlock(nullptr, BlockReason::kInternal);
  }
}

void Kernel::HaltedContinuation() { Panic("halted thread was resumed"); }

[[noreturn]] void Kernel::ThreadTerminateSelf() {
  Thread* thread = CurrentThread();
  MKC_ASSERT(!thread->is_idle && thread != reaper_thread_);
  thread->state = ThreadState::kHalted;
  if (thread->counts_for_liveness) {
    thread->counts_for_liveness = false;
    MKC_ASSERT(live_threads_ > 0);
    --live_threads_;
  }
  reaper_queue_.EnqueueTail(thread);
  ThreadWakeupOne(&reaper_queue_);
  ThreadBlock(&Kernel::HaltedContinuation, BlockReason::kThreadExit);
  Panic("halted thread continued past its final block");
}

void Kernel::TerminateTask(Task* task) {
  MKC_ASSERT(task != nullptr && !task->dead);
  task->dead = true;
  Thread* self = processor().active_thread;
  bool suicide = false;

  // Abort every thread of the task, wherever it waits.
  task->threads.ForEach([&](Thread* t) {
    if (t == self) {
      suicide = true;
      return;
    }
    switch (t->state) {
      case ThreadState::kHalted:
        return;  // Already with the reaper.
      case ThreadState::kRunnable:
        if (IntrusiveQueue<Thread, &Thread::run_link>::OnAQueue(t)) {
          RunQueueRemove(t);
        }
        break;
      case ThreadState::kWaiting:
        // The thread is parked on exactly one of: a wait bucket, a port
        // queue, a semaphore, or the upcall pool.
        ClearWait(t);
        if (IntrusiveQueue<Thread, &Thread::ipc_link>::OnAQueue(t)) {
          bool found = ipc_->AbortThreadWait(t) || ext_->semaphores.AbortWaiter(t) ||
                       ext_->upcalls.AbortParked(t);
          MKC_ASSERT_MSG(found, "waiting thread on an unknown queue");
        }
        break;
      case ThreadState::kEmbryo:
      case ThreadState::kRunning:
        Panic("task termination found a thread in an impossible state");
    }
    t->state = ThreadState::kHalted;
    t->continuation = nullptr;
    if (t->counts_for_liveness) {
      t->counts_for_liveness = false;
      MKC_ASSERT(live_threads_ > 0);
      --live_threads_;
    }
    reaper_queue_.EnqueueTail(t);
  });

  // Kill the task's ports so peers blocked on them fail out.
  ipc_->DestroyTaskPorts(task);
  ThreadWakeupOne(&reaper_queue_);

  if (suicide) {
    ThreadTerminateSelf();
  }
}

void Kernel::UserBootstrapContinuation() {
  Thread* thread = CurrentThread();
  MKC_ASSERT(thread->md.user_stack != nullptr);
  thread->md.user_ctx =
      MakeContext(thread->md.user_stack, static_cast<std::size_t>(thread->md.user_stack_size),
                  &UserModeStart, thread);
  ThreadExceptionReturn();
}

void Kernel::ThreadSetrun(Thread* thread) {
  ThreadSetrunOn(thread, thread->last_cpu);
}

void Kernel::ThreadSetrunOn(Thread* thread, int target_cpu) {
  MKC_ASSERT(thread->state != ThreadState::kRunning);
  MKC_ASSERT(thread->state != ThreadState::kHalted);
  MKC_ASSERT(target_cpu >= 0 && target_cpu < config_.ncpu);
  ChargeCycles(kCycThreadSetrun);
  // A wakeup: stamp when the thread became runnable so its next dispatch
  // records wakeup→run delay. The event carries the *woken* thread's span —
  // the wakeup is part of that request's critical path, not the waker's.
  thread->runnable_start = LatencyNow();
  thread->runnable_from = RunnableFrom::kWakeup;
  TracePointSpan(thread->span_id, TraceEvent::kSetrun, thread->id,
                 static_cast<std::uint32_t>(target_cpu));
  thread->last_cpu = target_cpu;
  cpus_[static_cast<std::size_t>(target_cpu)]->run_queue.Enqueue(thread);
}

Thread* Kernel::ThreadSelect() {
  Processor& cpu = processor();
  ChargeCycles(kCycThreadSelect);
  Thread* thread = cpu.run_queue.DequeueBest();
  if (thread != nullptr) {
    ++cpu.local_dequeues;
    return thread;
  }
  if (config_.ncpu > 1) {
    // Local queue dry: steal from the busiest remote queue (ties break to
    // the lowest CPU id, keeping the pick deterministic).
    Processor* victim = nullptr;
    std::uint64_t most = 0;
    for (auto& other : cpus_) {
      if (other.get() == &cpu) {
        continue;
      }
      if (other->run_queue.count() > most) {
        most = other->run_queue.count();
        victim = other.get();
      }
    }
    if (victim != nullptr) {
      thread = victim->run_queue.DequeueBest();
      if (thread != nullptr) {
        ++cpu.steals;
        // Steal latency: how long the thread sat runnable before a remote
        // CPU picked it up. The stamp is deliberately *not* consumed — the
        // stolen thread still records wakeup→run when it actually runs.
        if (thread->runnable_start != 0 && cpu.lat_steal != nullptr) {
          cpu.lat_steal->Record(LatencyNow() - thread->runnable_start);
        }
        TracePointSpan(thread->span_id, TraceEvent::kSteal, thread->id,
                       static_cast<std::uint32_t>(victim->id));
        thread->last_cpu = cpu.id;
        return thread;
      }
    }
  }
  return cpu.idle_thread;
}

void Kernel::RunQueueRemove(Thread* thread) {
  MKC_ASSERT(thread != nullptr);
  MKC_ASSERT_MSG(thread->runq_cpu >= 0 && thread->runq_cpu < config_.ncpu,
                 "thread %u is not on any run queue", thread->id);
  cpus_[static_cast<std::size_t>(thread->runq_cpu)]->run_queue.Remove(thread);
}

KernelStack* Kernel::AllocateStack() {
  if (config_.ncpu == 1) {
    return stack_pool_.Allocate();
  }
  Processor& cpu = processor();
  if (KernelStack* stack = cpu.stack_cache.DequeueHead()) {
    ++cpu.stack_cache_hits;
    stack_pool_.NoteCacheAllocate();
    return stack;
  }
  ++cpu.stack_cache_misses;
  return stack_pool_.Allocate();
}

void Kernel::FreeStack(KernelStack* stack) {
  if (config_.ncpu == 1) {
    stack_pool_.Free(stack);
    return;
  }
  Processor& cpu = processor();
  if (cpu.stack_cache.Size() < kCpuStackCacheLimit) {
    MKC_ASSERT(stack != nullptr);
    stack->CheckCanary();
    stack->owner = nullptr;
    cpu.stack_cache.EnqueueHead(stack);  // LIFO, same as the global pool.
    stack_pool_.NoteCacheFree();
    return;
  }
  stack_pool_.Free(stack);
}

int Kernel::WaitBucket(const void* event) {
  auto bits = reinterpret_cast<std::uintptr_t>(event);
  bits ^= bits >> 9;
  return static_cast<int>(bits % kWaitBuckets);
}

void Kernel::AssertWait(const void* event) {
  Thread* thread = CurrentThread();
  MKC_ASSERT(event != nullptr);
  MKC_ASSERT(thread->wait_event == nullptr);
  thread->wait_event = event;
  thread->wait_result = KernReturn::kSuccess;
  thread->state = ThreadState::kWaiting;
  wait_buckets_[WaitBucket(event)].EnqueueTail(thread);
}

void Kernel::ClearWait(Thread* thread) {
  if (thread->wait_event == nullptr) {
    return;
  }
  wait_buckets_[WaitBucket(thread->wait_event)].Remove(thread);
  thread->wait_event = nullptr;
}

std::uint64_t Kernel::ThreadWakeupAll(const void* event, KernReturn result) {
  auto& bucket = wait_buckets_[WaitBucket(event)];
  std::uint64_t woken = 0;
  while (Thread* thread = bucket.RemoveFirstIf(
             [event](Thread* t) { return t->wait_event == event; })) {
    thread->wait_event = nullptr;
    thread->wait_result = result;
    ThreadSetrun(thread);
    ++woken;
  }
  return woken;
}

bool Kernel::ThreadWakeupOne(const void* event, KernReturn result) {
  auto& bucket = wait_buckets_[WaitBucket(event)];
  Thread* thread =
      bucket.RemoveFirstIf([event](Thread* t) { return t->wait_event == event; });
  if (thread == nullptr) {
    return false;
  }
  thread->wait_event = nullptr;
  thread->wait_result = result;
  ThreadSetrun(thread);
  return true;
}

std::uint64_t Kernel::RunDueEvents() {
  std::uint64_t ran = 0;
  while (!events_.Empty() && events_.NextDeadline() <= clock().Now()) {
    events_.RunNext(clock());
    ++ran;
  }
  return ran;
}

// Declared in src/obs/timed_scope.h, which deliberately does not see the
// Kernel definition.
Ticks KernelLatencyNow(const Kernel& kernel) { return kernel.LatencyNow(); }

std::uint32_t Kernel::SpanBegin(SpanKind kind) {
  if (!spans_armed_) {
    return 0;
  }
  Thread* t = CurrentThread();
  std::uint32_t id = next_span_id_++;
  // Nesting (e.g. a fault raised inside an RPC): remember the enclosing
  // span so SpanEnd can restore it.
  t->span_parent = t->span_id;
  t->span_id = id;
  t->span_start = TraceNow();
  trace_.Record(TraceNow(), t->id, TraceEvent::kSpanBegin,
                static_cast<std::uint32_t>(kind), t->span_parent, id,
                static_cast<std::uint16_t>(current_cpu_->id));
  if (slo_ != nullptr) {
    TickSnapshotsBeforeSlo();
    slo_->OnSpanBegin(id, kind, TraceNow());
  }
  return id;
}

void Kernel::TickSnapshotsBeforeSlo() {
  // A snapshot reads the SLO window ending at its boundary, so every
  // boundary the frontier has reached is taken before this span moves the
  // tracker's ring past it.
  if (snapshots_ != nullptr) {
    snapshots_->Tick(*this);
  }
}

void Kernel::SpanEnd(SpanKind kind) {
  if (!spans_armed_) {
    return;
  }
  Thread* t = CurrentThread();
  if (t->span_id == 0) {
    return;  // Span began before tracing was (re)configured.
  }
  trace_.Record(TraceNow(), t->id, TraceEvent::kSpanEnd,
                static_cast<std::uint32_t>(kind), 0, t->span_id,
                static_cast<std::uint16_t>(current_cpu_->id));
  if (slo_ != nullptr) {
    // End-to-end latency comes from the tracker's own begin map, not
    // span_start (which SpanAdopt restarts mid-span for the watchdog).
    TickSnapshotsBeforeSlo();
    slo_->OnSpanEnd(t->span_id, kind, TraceNow());
  }
  t->span_id = t->span_parent;
  t->span_parent = 0;
  t->span_start = t->span_id != 0 ? TraceNow() : 0;
}

void Kernel::SpanAdopt(Thread* thread, std::uint32_t span) {
  if (!spans_armed_ || span == 0) {
    return;
  }
  // Same-span adoption (a client receiving the reply to its own request) is
  // a no-op so the client's own span_parent survives the delivery.
  if (thread->span_id != span) {
    thread->span_id = span;
    thread->span_parent = 0;
  }
  // Adoption is span progress either way: the causal chain just crossed a
  // message delivery, so the stuck-span clock restarts.
  thread->span_start = TraceNow();
}

void Kernel::ResetStats() {
  transfer_stats_.Reset();
  exc_stats_ = ExcStats{};
  cost_model_.Reset();
  stack_pool_.ResetStats();
  for (auto& cpu : cpus_) {
    cpu->local_dequeues = 0;
    cpu->steals = 0;
    cpu->stack_cache_hits = 0;
    cpu->stack_cache_misses = 0;
    cpu->idle_ticks = 0;
    cpu->idle_yields = 0;
  }
  ipc_->stats() = IpcStats{};
  ipc_->ResetZoneStats();
  vm_->stats() = VmStats{};
  // All of the above assign in place, so the registry's counter/gauge views
  // stay valid; only the registry-owned histograms need an explicit clear.
  metrics_.ResetHistograms();
  cont_registry_.ResetCounts();
  recognition_table_.ResetCounts();
  if (profiler_ != nullptr) {
    profiler_->Reset();
  }
  if (watchdog_ != nullptr) {
    watchdog_->Reset();
  }
}

}  // namespace mkc
