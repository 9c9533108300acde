// The recognition table (src/kern/recognition.h): registration semantics,
// the ablation contract (--no-recognition), and the
// end-to-end wakeup-absorption paths the table enables — a lossy 2-node
// cluster whose netipc protocol threads are resumed without ever being
// scheduled.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/kern/recognition.h"
#include "src/net/cluster.h"
#include "src/net/netipc.h"
#include "src/vm/vm_system.h"
#include "src/workload/workload.h"

namespace mkc {
namespace {

void ContA() {}
void ContB() {}

bool HandoffNever(Kernel&, Thread*) { return false; }
bool WakeupNever(Kernel&, Thread*) { return false; }

// --- Table unit tests --------------------------------------------------------

TEST(RecognitionTableTest, RegisterLookupUnregister) {
  RecognitionTable table;
  EXPECT_EQ(table.Find(&ContA), nullptr);
  EXPECT_EQ(table.Find(nullptr), nullptr);
  EXPECT_EQ(std::as_const(table).Find(&ContA), nullptr);

  table.Register(&ContA, &HandoffNever, nullptr);
  table.Register(&ContB, nullptr, &WakeupNever);

  RecognitionEntry* a = table.Find(&ContA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->on_handoff, &HandoffNever);
  EXPECT_EQ(a->on_wakeup, nullptr);
  RecognitionEntry* b = table.Find(&ContB);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->on_handoff, nullptr);
  EXPECT_EQ(b->on_wakeup, &WakeupNever);
  EXPECT_NE(std::as_const(table).Find(&ContA), nullptr);

  table.Unregister(&ContA);
  EXPECT_EQ(table.Find(&ContA), nullptr);
  EXPECT_EQ(std::as_const(table).Find(&ContA), nullptr);
  EXPECT_NE(table.Find(&ContB), nullptr);
  // Unregistering a pointer that was never registered is a no-op (late
  // subsystems unregister unconditionally in their destructors).
  table.Unregister(&ContA);
  EXPECT_EQ(table.entries().size(), 1u);
}

TEST(RecognitionTableTest, DuplicateRegistrationPanics) {
  RecognitionTable table;
  table.Register(&ContA, &HandoffNever, nullptr);
  // Two subsystems claiming one continuation is a construction-order bug;
  // the second claimant must die loudly, not silently shadow the first.
  EXPECT_DEATH(table.Register(&ContA, nullptr, &WakeupNever),
               "duplicate registration");
}

TEST(RecognitionTableTest, ResetCountsClearsAccounting) {
  RecognitionTable table;
  table.Register(&ContA, &HandoffNever, nullptr);
  RecognitionEntry* e = table.Find(&ContA);
  ASSERT_NE(e, nullptr);
  e->handoff_hits = 3;
  e->wakeup_hits = 2;
  e->declines = 1;
  table.ResetCounts();
  EXPECT_EQ(e->handoff_hits, 0u);
  EXPECT_EQ(e->wakeup_hits, 0u);
  EXPECT_EQ(e->declines, 0u);
}

// --- Kernel registration surface --------------------------------------------

TEST(RecognitionTableTest, KernelRegistersLegacyAndTableSites) {
  KernelConfig config;  // MK40 defaults: recognition on.
  Kernel kernel(config);
  // The legacy §2.4 sites and the vm specialization are construction-time
  // table entries; the receive fast path is literally the first one.
  ASSERT_FALSE(kernel.recognition().entries().empty());
  EXPECT_EQ(kernel.recognition().entries()[0].fn, &MachMsgContinue);
  EXPECT_NE(std::as_const(kernel.recognition()).Find(&MachMsgContinue), nullptr);
  EXPECT_NE(std::as_const(kernel.recognition()).Find(&VmSystem::VmFaultRetryContinue), nullptr);
  EXPECT_NE(std::as_const(kernel.recognition()).Find(&VmSystem::VmFaultMapContinue), nullptr);
}

// --- End to end: wakeup absorption on a lossy cluster ------------------------

ClusterRpcParams LossyParams() {
  ClusterRpcParams p;
  p.clients = 4;
  p.requests_per_client = 25;
  return p;
}

TEST(RecognitionTableTest, LossyClusterAbsorbsProtocolThreadWakeups) {
  KernelConfig config;
  config.seed = 7;
  LinkConfig link;
  link.drop_per_mille = 50;
  Cluster cluster(config, 2, link);
  ClusterReport r = RunClusterRpcWorkload(cluster, LossyParams());
  EXPECT_EQ(r.rpcs_ok, 100u);
  EXPECT_EQ(r.rpcs_failed, 0u);
  EXPECT_GT(r.net.retransmits, 0u);  // The loss rate must exercise the timer.
  for (int i = 0; i < 2; ++i) {
    Kernel& node = cluster.node(i);
    // Wakeups were absorbed: protocol threads resumed in the waker's
    // context instead of being scheduled.
    EXPECT_GT(node.transfer_stats().wakeup_recognitions, 0u) << "node " << i;
    // Per-site accounting: the out thread's forward-and-repark handler and
    // the engine's service-and-repark handler both fired.
    RecognitionEntry* recv = node.recognition().Find(&NetIpcRecvContinue);
    ASSERT_NE(recv, nullptr) << "node " << i;
    EXPECT_GT(recv->wakeup_hits, 0u) << "node " << i;
    RecognitionEntry* ack = node.recognition().Find(&NetIpcAckContinue);
    ASSERT_NE(ack, nullptr) << "node " << i;
    EXPECT_GT(ack->wakeup_hits, 0u) << "node " << i;
  }
}

// The ablation contract's behavioral half (CI's determinism smoke does the
// byte-level half): with recognition off the lossy run still completes, and
// nothing anywhere is recognized — neither at resume nor at wakeup.
TEST(RecognitionTableTest, NoRecognitionRecognizesNothing) {
  KernelConfig config;
  config.seed = 7;
  config.enable_recognition = false;
  LinkConfig link;
  link.drop_per_mille = 50;
  Cluster cluster(config, 2, link);
  ClusterReport r = RunClusterRpcWorkload(cluster, LossyParams());
  EXPECT_EQ(r.rpcs_ok, 100u);
  for (int i = 0; i < 2; ++i) {
    const TransferStats& ts = cluster.node(i).transfer_stats();
    EXPECT_EQ(ts.recognitions, 0u) << "node " << i;
    EXPECT_EQ(ts.wakeup_recognitions, 0u) << "node " << i;
  }
}

}  // namespace
}  // namespace mkc
