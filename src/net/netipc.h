// The netmsg server: transparent cross-node Mach IPC (the paper's §3
// communication machinery stretched over a lossy network).
//
// Each node runs one NetIpc instance with two protocol threads, both
// created with CreateKernelThread and both blocking **with continuations**
// under MK40 — an idle proxy holds no kernel stack, which is the whole
// point (§3.3, Table 5):
//
//   netipc-out ("netipc_recv_continue")
//     Blocks in mach_msg receive on the proxy port *set*. A local send to
//     any proxy port is *recognized* on the wakeup path: NetIpcRecvContinue
//     registers an on_wakeup handler in the recognition table
//     (kern/recognition.h), so the sender's delivery is absorbed in the
//     sender's own context — the message is serialized (header, inline
//     body, OOL descriptor, PR-3 span id) into a wire kmsg from the PR-4
//     zones, recorded unacked, and transmitted without this thread ever
//     becoming runnable; it is simply re-parked. The handler declines (zone
//     dry, a queued backlog, or an OOL capture that must run on the
//     protocol thread) and the general OutboundStep body runs on a
//     donated/fresh stack instead.
//
//   netipc-engine ("netipc_ack_continue")
//     Blocks in mach_msg receive on the ack port with a *timeout* — the
//     earliest protocol deadline. Inbound wire packets are delivered to the
//     ack port by the network's virtual-time events; timeouts drive
//     retransmission, delayed-ack flushes and pull expiry, and after
//     kNetMaxSendAttempts an entry is failed back to the local sender in
//     dead-name style (kRcvPortDied on its reply port). NetIpcAckContinue
//     also registers an on_wakeup handler: packet arrivals and timer pops
//     are serviced inline in the delivering event's context and the engine
//     re-parked, so steady-state protocol processing schedules no thread.
//
// The wire protocol is selective repeat. Every sequenced packet (DATA,
// OOL_PULL, OOL_DATA) carries a cumulative ack + 64-bit SACK bitmap for the
// reverse channel, so steady-state RPC piggybacks every acknowledgement on
// reply traffic and sends zero standalone ACKs (a delayed-ack timer,
// kNetAckDelay, flushes the stragglers). The receiver buffers up to
// kNetRxWindow out-of-order packets and hands them to mach_msg strictly in
// order; the sender retransmits *individual* entries on per-entry deadlines
// with an adaptive RTO (EWMA srtt/rttvar, Karn-sampled from first-attempt
// acks only) and fast-retransmits a hole as soon as SACK shows later packets
// landed. Small packets (≤ kSmallKmsgBytes on the wire) emitted inside one
// engine or outbound burst to the same peer are coalesced into a single
// FRAME_BATCH frame. OOL payloads ship lazily: DATA carries (size, source
// node, pull cookie); the source parks the captured VmObject in an export
// table and the receiving node installs an unpulled kPaged object, whose
// first touch does a continuation-blocked OOL_PULL/OOL_DATA exchange through
// VmSystem (NORMA-style copy-on-reference) — an RPC that never touches its
// OOL payload never pays its wire cost.
//
// Proxy ports: BindProxy(node, port) allocates a local port owned by the
// netmsg task and maps it to the remote (node, port) pair. Reply ports are
// exported implicitly: a DATA packet carries (reply_node, reply_port) and
// the receiving node binds its own proxy for them, so `UserRpc` round
// trips work unchanged in both directions. DestroyPort's dead-name hook
// GCs proxy state instead of leaking it (PORT_DEATH packets, fire and
// forget — a lost one only delays GC until the sender-side proxy dies too).
#ifndef MACHCONT_SRC_NET_NETIPC_H_
#define MACHCONT_SRC_NET_NETIPC_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/ipc/message.h"
#include "src/ipc/wire.h"

namespace mkc {

class Kernel;
class Network;
class VmObject;
struct Task;
struct Thread;

// Wire-protocol tuning. Virtual ticks; the base deadline comfortably covers
// one round trip at default link latency so a lossless link never
// retransmits.
inline constexpr Ticks kNetRetransmitBase = 30000;
inline constexpr std::uint32_t kNetMaxSendAttempts = 6;
inline constexpr std::uint32_t kNetMaxBackoffShift = 5;
// Selective repeat. The RTO floor must stay above the delayed-ack flush
// plus one transit, or a lossless link would retransmit waiting for a
// straggler ack.
inline constexpr Ticks kNetMinRto = 10000;    // Adaptive RTO clamp floor.
inline constexpr Ticks kNetAckDelay = 4000;   // Delayed standalone-ack flush.
inline constexpr std::uint32_t kNetRxWindow = 64;  // SACK bitmap width.
// A pull whose OOL_DATA train never completes (source gave up resending
// into a dead link) fails after this long and dead-names the toucher. Must
// exceed the worst-case chunk retransmit budget:
// kNetRetransmitBase × (2^kNetMaxBackoffShift × 2 − 1) ≈ 1.9M ticks is the
// ceiling with a maxed-out RTO; with the adaptive RTO clamped at 30000 the
// practical worst case is well under this.
inline constexpr Ticks kNetOolPullDeadline = 2000000;

struct NetStats {
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t packets_tx = 0;
  std::uint64_t packets_rx = 0;
  std::uint64_t drops = 0;        // Packets the link randomly lost.
  std::uint64_t dups = 0;         // Packets the link duplicated.
  std::uint64_t queue_full = 0;   // Packets dropped at a full link queue.
  std::uint64_t retransmits = 0;
  std::uint64_t give_ups = 0;     // Unacked entries failed after max attempts.
  std::uint64_t acks_tx = 0;
  std::uint64_t acks_rx = 0;
  std::uint64_t dead_tx = 0;      // DEAD replies sent (remote port gone).
  std::uint64_t dead_rx = 0;
  std::uint64_t rx_backpressure = 0;  // In-order DATA dropped unacked (no kmsg/queue room).
  std::uint64_t rx_dup_data = 0;      // Already-delivered DATA re-acked.
  std::uint64_t msgs_out = 0;     // Local messages forwarded off-node.
  std::uint64_t msgs_in = 0;      // Wire messages re-injected locally.
  std::uint64_t proxy_gcs = 0;    // Proxy entries reclaimed via PORT_DEATH.
  std::uint64_t proxy_table = 0;  // Gauge: live local proxy ports.
  // --- selective repeat and lazy OOL --------------------------------------
  std::uint64_t reorders = 0;          // Packets the link delayed past later ones.
  std::uint64_t acks_piggybacked = 0;  // Ack obligations cleared by outbound data.
  std::uint64_t frames_coalesced = 0;  // FRAME_BATCH frames sent (≥2 packets each).
  std::uint64_t fast_retransmits = 0;  // Resends triggered by SACK hole evidence.
  std::uint64_t rx_ooo_buffered = 0;   // Out-of-order packets held for reassembly.
  std::uint64_t rx_ooo_hw = 0;         // High-water mark of the reassembly buffer.
  std::uint64_t bytes_goodput = 0;     // Application payload bytes delivered.
  std::uint64_t ool_pulls = 0;         // Lazy-OOL pull requests issued (first touch).
  std::uint64_t ool_pushes = 0;        // Pull requests served with an OOL_DATA train.
  std::uint64_t ool_bytes_pulled = 0;  // OOL payload bytes actually shipped.
  std::uint64_t ool_pull_fails = 0;    // Pulls that dead-named the toucher.
};

class NetIpc {
 public:
  NetIpc(Kernel& kernel, int node_id, Network& net);
  ~NetIpc();

  NetIpc(const NetIpc&) = delete;
  NetIpc& operator=(const NetIpc&) = delete;

  // Gives this node the full cluster membership (indexed by node id) and
  // sizes the per-peer channel and staging tables to match. Must be called
  // on every node before any cross-node traffic.
  void AttachPeers(std::vector<NetIpc*> peers);

  // Returns a local proxy port whose messages are forwarded to `port` on
  // `node`, binding one if none exists. Pure data — callable before Run().
  PortId BindProxy(int node, PortId port);

  // Network-facing entry: a wire packet arrived at this node (called from a
  // virtual-time event; must not block). A packet that fails to parse, or
  // names a node outside the cluster (or this node as its source), is
  // dropped before it touches any protocol state.
  void DeliverWire(const std::byte* bytes, std::uint32_t len);

  // The fault path's gate for NORMA-imported objects (vm/vm_system.cc).
  // kReady: not remote (or already pulled) — fault on through. kWait: a
  // pull is in flight (this call may have just issued it, and may block on
  // kmsg-zone exhaustion doing so); the faulter must AssertWait(object) and
  // block with the fault-retry continuation. kFailed: the pull exhausted
  // its budget; the toucher gets a bad-access exception, dead-name style.
  enum class OolGate { kReady, kWait, kFailed };
  OolGate OolFaultPrepare(VmObject* object);

  Kernel& kernel() { return kernel_; }
  int node_id() const { return node_id_; }
  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }
  std::size_t proxy_count() const { return proxy_out_.size(); }
  Thread* out_thread() { return out_thread_; }
  Thread* engine_thread() { return engine_thread_; }

  // Protocol-thread bodies (reached via the NetIpcRecvContinue /
  // NetIpcAckContinue continuations). Each processes one wakeup's worth of
  // work and ends blocked in a fresh receive wait.
  void OutboundStep();
  void EngineStep();

 private:
  struct RemoteRef {
    int node = 0;
    PortId port = kInvalidPort;
  };

  // A transmitted sequenced packet awaiting acknowledgement. The wire bytes
  // live in a zone kmsg body so retransmission needs no re-serialization.
  struct Unacked {
    KMessage* kmsg = nullptr;
    std::uint32_t seq = 0;
    PortId local_reply = kInvalidPort;  // Who to fail if we give up.
    Ticks deadline = 0;
    std::uint32_t attempts = 0;
    Ticks sent_at = 0;             // First-transmit time (Karn RTT sampling).
    std::uint32_t kind = 0;        // WireKind riding this entry.
    std::uint32_t ool_cookie = 0;  // kData: export to drop on failure.
                                   // kOolPull: import to fail on give-up.
    bool sacked = false;           // Receiver holds it; stop retransmitting.
    bool fast_retx = false;        // The one-shot SACK resend already fired.
  };

  // Per-peer reliable channel state (both directions).
  struct Channel {
    std::uint32_t tx_next = 1;      // Next sequenced seq to assign.
    std::uint32_t rx_expected = 1;  // Next in-order seq to accept.
    std::vector<Unacked> unacked;   // In seq order; acks erase a prefix.
    // Receive-side reorder buffer (raw packets keyed by seq, at most
    // kNetRxWindow−1 entries) and the delayed-ack obligation.
    std::map<std::uint32_t, std::vector<std::byte>> rx_ooo;
    bool ack_pending = false;
    Ticks ack_deadline = 0;
    // Adaptive RTO. EWMA of first-attempt ack round trips, clamped to
    // [kNetMinRto, kNetRetransmitBase].
    Ticks srtt = 0;
    Ticks rttvar = 0;
    Ticks rto = kNetRetransmitBase;
  };

  // A lazily-shipped OOL payload retained source-side until pulled (or the
  // carrying DATA entry failed).
  struct OolExport {
    std::unique_ptr<VmObject> object;
    std::uint32_t size = 0;
  };

  // An in-flight pull on the importing side. Created at first touch; the
  // coarse state machine lives in VmObject::remote_pull (entry exists ⇔
  // kPulling).
  struct OolImport {
    VmObject* object = nullptr;
    std::uint32_t size = 0;      // Total payload bytes expected.
    std::uint32_t received = 0;  // OOL_DATA bytes landed so far.
    Ticks deadline = 0;          // Give-up time if the train never completes.
  };

  enum class InjectResult { kOk, kDead, kBackpressure };

  // A per-destination staging buffer for small-frame coalescing: packets
  // ≤ kSmallKmsgBytes emitted while a batch scope is open are appended as
  // [u32 len][packet] records and flushed as one FRAME_BATCH when the
  // burst ends (a lone packet flushes raw).
  struct Stage {
    std::vector<std::byte> bytes;
    std::uint32_t count = 0;
  };

  // Recognition-table on_wakeup handlers (kern/recognition.h), registered
  // for NetIpcRecvContinue / NetIpcAckContinue in the constructor. Both run
  // in the waker's context (possibly a virtual-time event): they must not
  // block, and they decline — leaving all state untouched — whenever the
  // work would (kmsg zone dry) or a general-path pass is needed anyway.
  static bool OutboundWakeupRecognized(Kernel& kernel, Thread* waiter);
  static bool EngineWakeupRecognized(Kernel& kernel, Thread* waiter);

  // Tail shared by EngineStep and the engine's wakeup handler: drain queued
  // ack-port packets, run the retransmit scan, the pull expiry scan and the
  // delayed-ack flush, and re-park the engine in its timed receive. Never
  // blocks; `from_handler` skips the ThreadBlock.
  void EngineServiceAndPark(bool from_handler);

  // `can_block` false (the wakeup handler's inline path) allocates the wire
  // kmsg with TryAllocKmsg and returns false — with no state mutated — when
  // the zone is dry; true means the caller may block (protocol threads).
  bool HandleOutboundDirect(bool can_block);
  bool ForwardMessage(const MessageHeader& header, const void* body,
                      std::uint32_t ool_size, bool can_block,
                      std::unique_ptr<VmObject> ool_obj = nullptr);
  void HandleWirePacket(const std::byte* bytes, std::uint32_t len);
  InjectResult InjectLocal(const WireHeader& wire, const std::byte* body);
  void SendControl(int dst_node, WireKind kind, std::uint32_t seq);
  // Pops every entry through `seq`, failing the exact entry `seq` back to
  // its sender (its remote destination died).
  void PopAcked(Channel& ch, std::uint32_t seq);
  void FailEntry(const Unacked& entry);
  void RetransmitScan();
  void KickEngine();
  static void OnPortDeath(void* ctx, PortId id);

  // --- selective repeat ---------------------------------------------------
  // Assigns the next seq on the channel to `dst_node`, stamps the
  // piggybacked ack/SACK, serializes into a zone kmsg (`wk` if the caller
  // pre-allocated, else AllocKmsg — which may block), records the entry
  // unacked and transmits. The one path every sequenced packet leaves by.
  void SendSequenced(int dst_node, WireHeader& wire, const void* body,
                     std::uint32_t body_bytes, PortId local_reply,
                     KMessage* wk);
  void HandleSequenced(int src, Channel& ch, const WireHeader& wire,
                       const std::byte* body, const std::byte* packet,
                       std::uint32_t packet_len);
  bool DeliverSequenced(int src, Channel& ch, const WireHeader& wire,
                        const std::byte* body, std::uint32_t body_bytes);
  void DrainOoo(int src, Channel& ch);
  InjectResult HandleOolPull(const WireHeader& wire);
  InjectResult HandleOolChunk(const WireHeader& wire, std::uint32_t body_bytes);
  void RequestOolPull(int src_node, std::uint32_t cookie);
  void MarkImportFailed(int src_node, std::uint32_t cookie);
  std::uint64_t BuildSack(const Channel& ch) const;
  void StampAck(WireHeader& wire, int dst_node, bool count_piggyback);
  void RestampAck(KMessage* wk, int dst_node);
  void ProcessAckInfo(int node, Channel& ch, std::uint32_t ack,
                      std::uint64_t sack);
  void ObserveRtt(Channel& ch, Ticks sample);
  void ScheduleAck(int src, Ticks delay);
  void FlushAcks();
  void GiveUpChannel(int node, Channel& ch);
  void BeginBatch();
  void FlushBatch();
  void FlushStage(int dst_node, Stage& stage);
  Channel& channel(int node) { return channels_[static_cast<std::size_t>(node)]; }
  // Every wire emission funnels through here: passthrough for large packets
  // or outside a batch scope; otherwise staged for coalescing.
  void TransmitPacket(int dst_node, const std::byte* bytes, std::uint32_t len);

  Kernel& kernel_;
  int node_id_;
  Network& net_;
  std::vector<NetIpc*> peers_;

  Task* task_ = nullptr;           // The "netmsg" task: owns proxy ports.
  PortId proxy_set_ = kInvalidPort;
  PortId ack_port_ = kInvalidPort;
  Thread* out_thread_ = nullptr;
  Thread* engine_thread_ = nullptr;
  UserMessage out_buf_;
  UserMessage engine_buf_;
  bool engine_waiting_ = false;    // Engine parked in its timed receive.

  // Deterministic (ordered) proxy state. proxy_out_ maps local proxy port →
  // remote target; remote_to_proxy_ is the inverse for dedup and PORT_DEATH
  // GC; exported_ tracks which peers hold proxies to each local port so its
  // death can be broadcast.
  std::map<PortId, RemoteRef> proxy_out_;
  std::map<std::pair<int, PortId>, PortId> remote_to_proxy_;
  std::map<PortId, std::set<int>> exported_;
  std::vector<Channel> channels_;  // Indexed by peer node id.

  // Lazy-OOL state. Exports are keyed by the cookie we minted; imports
  // by (source node, cookie) — deterministic keys, never raw pointers, so
  // iteration order (deadline scans) is identical across runs.
  std::uint32_t next_ool_cookie_ = 1;
  std::map<std::uint32_t, OolExport> ool_exports_;
  std::map<std::pair<int, std::uint32_t>, OolImport> imports_;

  // Coalescing scope. Depth-counted so nested bursts (an outbound drain
  // kicking the engine) flush once, at the outermost close.
  int batch_depth_ = 0;
  std::vector<Stage> stage_;  // Indexed by peer node id.

  NetStats stats_;
};

// The protocol threads' continuations. Free functions so the recognition
// table (kern/recognition.h) can key specialized wakeup handlers off their
// addresses: a delivery to a parked protocol thread is serviced inline in
// the waker's context and the thread re-parked, never scheduled. When the
// handler declines (or recognition is disabled) the general protocol body
// runs on a donated or fresh stack.
void NetIpcRecvContinue();
void NetIpcAckContinue();

}  // namespace mkc

#endif  // MACHCONT_SRC_NET_NETIPC_H_
