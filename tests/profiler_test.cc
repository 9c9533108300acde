// The continuation-aware profiler, the snapshot stream's local sink, and the
// stall watchdog.
//
// The properties under test are the ones the tools advertise:
//  * determinism — a fixed (config, seed, interval) reproduces the folded
//    profile and snapshot JSONL byte-identically;
//  * conservation — per-key folded cycle totals sum to total_cycles();
//  * attribution — blocked threads sample as their registered continuation
//    names, and the registry's counters reproduce the recognition rates;
//  * detection — an injected lost wakeup is flagged by the watchdog.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/obs/introspect.h"
#include "src/obs/profiler.h"
#include "src/obs/snapshot.h"
#include "src/obs/watchdog.h"
#include "src/task/task.h"
#include "src/task/usermode.h"
#include "src/workload/workload.h"

namespace mkc {
namespace {

// --- Registry unit tests -----------------------------------------------------

void ContA() {}
void ContB() {}

TEST(ContinuationRegistryTest, RegisterIsIdempotentFirstNameWins) {
  ContinuationRegistry reg;
  reg.Register(&ContA, "first");
  reg.Register(&ContA, "second");
  EXPECT_STREQ(reg.Name(&ContA), "first");
  ASSERT_EQ(reg.entries().size(), 1u);
}

TEST(ContinuationRegistryTest, NameFallbacks) {
  ContinuationRegistry reg;
  reg.Register(&ContA, "a");
  EXPECT_STREQ(reg.Name(nullptr), "<none>");
  EXPECT_STREQ(reg.Name(&ContB), "<unregistered>");
  EXPECT_STREQ(reg.Name(&ContA), "a");
}

TEST(ContinuationRegistryTest, AccountingAndRecognitionRate) {
  ContinuationRegistry reg;
  reg.Register(&ContA, "a");
  reg.NoteBlock(&ContA);
  reg.NoteBlock(&ContA);
  reg.NoteResume(&ContA);
  reg.NoteRecognition(&ContA);
  const ContinuationInfo* info = reg.Find(&ContA);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->blocks, 2u);
  EXPECT_EQ(info->resumes, 1u);
  EXPECT_EQ(info->recognitions, 1u);
  EXPECT_DOUBLE_EQ(info->RecognitionRate(), 0.5);
  // Unregistered pointers land in the catch-all, not nowhere.
  reg.NoteBlock(&ContB);
  EXPECT_EQ(reg.unregistered_blocks(), 1u);
  reg.ResetCounts();
  EXPECT_EQ(reg.Find(&ContA)->blocks, 0u);
  EXPECT_EQ(reg.unregistered_blocks(), 0u);
}

// --- Profiler over a real workload -------------------------------------------

struct ProfileCapture {
  std::string folded;
  std::string snapshots;
  std::uint64_t total_cycles = 0;
  std::uint64_t samples = 0;
  std::uint64_t folded_sum = 0;
  std::uint64_t msg_blocks = 0;
  std::uint64_t msg_recognitions = 0;
  double msg_rate = 0.0;
  std::uint64_t unregistered_blocks = 0;
};

void CaptureProfile(Kernel& kernel, void* arg) {
  auto* cap = static_cast<ProfileCapture*>(arg);
  ASSERT_NE(kernel.profiler(), nullptr);
  cap->folded = kernel.profiler()->FoldedString();
  cap->snapshots = kernel.snapshots()->Jsonl();
  cap->total_cycles = kernel.profiler()->total_cycles();
  cap->samples = kernel.profiler()->samples();
  for (const auto& [key, cycles] : kernel.profiler()->folded()) {
    cap->folded_sum += cycles;
  }
  for (const ContinuationInfo& info : kernel.continuations().entries()) {
    if (info.name == "mach_msg_continue") {
      cap->msg_blocks = info.blocks;
      cap->msg_recognitions = info.recognitions;
      cap->msg_rate = info.RecognitionRate();
    }
  }
  cap->unregistered_blocks = kernel.continuations().unregistered_blocks();
}

ProfileCapture RunProfiledCompile(std::uint64_t seed, int scale = 2) {
  KernelConfig config;
  config.profile_interval = 5000;
  config.snapshot_interval = 50000;
  WorkloadParams params;
  params.scale = scale;
  params.seed = seed;
  ProfileCapture cap;
  params.post_run = &CaptureProfile;
  params.post_run_arg = &cap;
  RunCompileWorkload(config, params);
  return cap;
}

TEST(ProfilerTest, FoldedCyclesSumToTotalSampledCycles) {
  ProfileCapture cap = RunProfiledCompile(42);
  EXPECT_GT(cap.samples, 0u);
  EXPECT_GT(cap.total_cycles, 0u);
  EXPECT_EQ(cap.folded_sum, cap.total_cycles);
  // Every sample attributed one interval per sample to at least one thread.
  EXPECT_GE(cap.total_cycles, cap.samples * 5000);
}

TEST(ProfilerTest, ProfileIsDeterministicForFixedConfigSeedInterval) {
  ProfileCapture a = RunProfiledCompile(42);
  ProfileCapture b = RunProfiledCompile(42);
  EXPECT_FALSE(a.folded.empty());
  EXPECT_EQ(a.folded, b.folded);
  EXPECT_EQ(a.snapshots, b.snapshots);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  // A different run length is a different schedule; the profile must move
  // too (guards against the profiler accidentally sampling nothing real).
  ProfileCapture c = RunProfiledCompile(42, /*scale=*/3);
  EXPECT_NE(a.folded, c.folded);
}

TEST(ProfilerTest, BlockedThreadsSampleAsRegisteredContinuations) {
  ProfileCapture cap = RunProfiledCompile(42);
  // The compile workload's servers spend the run blocked in mach_msg; the
  // folded profile must say so by name, with the wait port as a leaf frame.
  EXPECT_NE(cap.folded.find("blocked:message-receive;mach_msg_continue;port"),
            std::string::npos);
  // No raw pointers, no anonymous frames: everything the kernel blocks with
  // is registered.
  EXPECT_EQ(cap.folded.find("<unregistered>"), std::string::npos);
  EXPECT_EQ(cap.unregistered_blocks, 0u);
}

TEST(ProfilerTest, RegistryReproducesReceiveRecognitionRate) {
  ProfileCapture cap = RunProfiledCompile(42);
  // MK40 with recognition on: nearly every receive resumption on the RPC
  // path is recognized (the paper's Table 2 shows 99%+ for mach_msg).
  EXPECT_GT(cap.msg_blocks, 0u);
  EXPECT_GT(cap.msg_recognitions, 0u);
  EXPECT_GT(cap.msg_rate, 0.9);
}

TEST(ProfilerTest, SnapshotLocalSinkEmitsJsonlRows) {
  ProfileCapture cap = RunProfiledCompile(42);
  ASSERT_FALSE(cap.snapshots.empty());
  // Every line is one JSON object: the fixed fields, then the registry's
  // counter deltas and histogram quantiles.
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < cap.snapshots.size()) {
    std::size_t end = cap.snapshots.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = cap.snapshots.substr(start, end - start);
    EXPECT_EQ(line.rfind("{\"node\":0,\"seq\":" + std::to_string(lines) + ",\"t\":" +
                             std::to_string((lines + 1) * 50000) + ",",
                         0),
              0u)
        << line;
    EXPECT_NE(line.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(line.find("\"hist\":{"), std::string::npos);
    EXPECT_EQ(line.back(), '}');
    ++lines;
    start = end + 1;
  }
  EXPECT_GT(lines, 1u);
}

// One long user burst crosses several boundaries with a single safe point
// at its end: every row it crossed reports the step's utilization (the
// only thread never lets the CPU idle), not just the first.
struct Burst {
  Ticks begin = 0;
  Ticks end = 0;
};

void RunBurst(void* arg) {
  auto* burst = static_cast<Burst*>(arg);
  UserWork(300);
  burst->begin = ActiveKernel().VirtualTime();
  UserWork(4500);
  burst->end = ActiveKernel().VirtualTime();
  UserWork(300);
}

TEST(ProfilerTest, SnapshotBurstAcrossBoundariesKeepsUtilization) {
  KernelConfig config;
  config.snapshot_interval = 1000;
  Kernel kernel(config);
  Burst burst;
  kernel.CreateUserThread(kernel.CreateTask("burst"), &RunBurst, &burst);
  kernel.Run();
  kernel.snapshots()->Tick(kernel);
  int crossed = 0;
  for (const Snapshot& s : kernel.snapshots()->taken()) {
    if (s.t > burst.begin && s.t <= burst.end) {
      EXPECT_EQ(s.util_permille, 1000u) << "boundary " << s.t;
      ++crossed;
    }
  }
  EXPECT_GE(crossed, 4);
}

TEST(ProfilerTest, ZeroConfigMeansNoObservers) {
  KernelConfig config;
  Kernel kernel(config);
  EXPECT_EQ(kernel.profiler(), nullptr);
  EXPECT_EQ(kernel.snapshots(), nullptr);
  EXPECT_EQ(kernel.watchdog(), nullptr);
}

// --- Stall watchdog ----------------------------------------------------------

struct StallState {
  PortId dead_port = kInvalidPort;
  Ticks spin = 0;
};

// The injected lost wakeup: a receive on a port no one will ever send to.
void ForgottenWaiter(void* arg) {
  auto* st = static_cast<StallState*>(arg);
  UserMessage msg;
  UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, st->dead_port);
  FAIL() << "the forgotten waiter was woken";
}

void BusyMain(void* arg) {
  auto* st = static_cast<StallState*>(arg);
  // Advance virtual time well past the watchdog threshold in safe-point
  // sized steps, so ObsTick gets a chance to run the checks.
  for (int i = 0; i < 16; ++i) {
    UserWork(st->spin);
  }
}

TEST(WatchdogTest, FlagsInjectedLostWakeup) {
  KernelConfig config;
  config.watchdog_threshold = 100000;
  config.trace_capacity = 4096;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("stall");
  StallState st;
  st.dead_port = kernel.ipc().AllocatePort(task);
  st.spin = 50000;
  ThreadOptions daemon;
  daemon.daemon = true;
  Thread* waiter = kernel.CreateUserThread(task, &ForgottenWaiter, &st, daemon);
  kernel.CreateUserThread(task, &BusyMain, &st);
  kernel.Run();

  ASSERT_NE(kernel.watchdog(), nullptr);
  bool flagged = false;
  for (const StallRecord& s : kernel.watchdog()->stalls()) {
    if (s.kind == StallKind::kLostWakeup && s.thread == waiter->id) {
      flagged = true;
      EXPECT_GE(s.age, kernel.config().watchdog_threshold);
      // The description names the continuation the waiter is parked on.
      EXPECT_NE(s.description.find("mach_msg_continue"), std::string::npos)
          << s.description;
    }
  }
  EXPECT_TRUE(flagged);
  // The suspect also went into the trace ring as a kStallWarn record.
  bool traced = false;
  kernel.trace().ForEach([&](const TraceRecord& r) {
    if (r.event == TraceEvent::kStallWarn && r.thread == waiter->id &&
        r.aux == static_cast<std::uint32_t>(StallKind::kLostWakeup)) {
      traced = true;
    }
  });
  EXPECT_TRUE(traced);
  // Dedup: one suspect, flagged once, no matter how many checks ran.
  int lost_wakeups = 0;
  for (const StallRecord& s : kernel.watchdog()->stalls()) {
    lost_wakeups += s.kind == StallKind::kLostWakeup ? 1 : 0;
  }
  EXPECT_EQ(lost_wakeups, 1);
  EXPECT_FALSE(kernel.watchdog()->Report().empty());
}

TEST(WatchdogTest, QuietOnHealthyRun) {
  KernelConfig config;
  config.watchdog_threshold = 10000000;  // Far beyond the run's vtime.
  Kernel kernel(config);
  Task* task = kernel.CreateTask("healthy");
  StallState st;
  st.spin = 20000;
  kernel.CreateUserThread(task, &BusyMain, &st);
  kernel.Run();
  ASSERT_NE(kernel.watchdog(), nullptr);
  EXPECT_TRUE(kernel.watchdog()->stalls().empty());
  EXPECT_TRUE(kernel.watchdog()->Report().empty());
}

// Internal protocol threads (pager, reaper, device service) block forever by
// design; the watchdog must not cry wolf about them.
TEST(WatchdogTest, InternalThreadsAreExemptFromLostWakeup) {
  KernelConfig config;
  config.watchdog_threshold = 1000;  // Aggressive: everything looks stalled.
  Kernel kernel(config);
  Task* task = kernel.CreateTask("exempt");
  StallState st;
  st.spin = 5000;
  kernel.CreateUserThread(task, &BusyMain, &st);
  kernel.Run();
  ASSERT_NE(kernel.watchdog(), nullptr);
  for (const StallRecord& s : kernel.watchdog()->stalls()) {
    if (s.kind != StallKind::kLostWakeup) {
      continue;
    }
    // Any flagged waiter must be a user thread, never pager/reaper/devices.
    EXPECT_EQ(s.description.find("pager"), std::string::npos) << s.description;
    EXPECT_EQ(s.description.find("reaper"), std::string::npos) << s.description;
    EXPECT_EQ(s.description.find("-intr"), std::string::npos) << s.description;
  }
}

}  // namespace
}  // namespace mkc
