// The deterministic virtual-time network model connecting cluster nodes.
//
// Every ordered node pair is a link with a fixed propagation latency, a
// per-byte serialization cost, a bounded in-flight queue, and seeded loss /
// duplication. Transmit charges the sending node's CPU for the copy onto
// the wire, then posts a delivery event into the *destination* kernel's
// event queue at the arrival time computed against the sender's time
// frontier — the cluster driver's frontier arbitration (net/cluster.h)
// guarantees the destination clock has not passed that deadline, so
// arrival order is deterministic for a given seed.
#ifndef MACHCONT_SRC_NET_LINK_H_
#define MACHCONT_SRC_NET_LINK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"

namespace mkc {

class NetIpc;

struct LinkConfig {
  Ticks latency = 2000;            // Propagation delay per packet.
  Ticks per_byte = 2;              // Serialization cost per payload byte.
  std::uint32_t drop_per_mille = 0;  // Chance a packet is silently lost.
  std::uint32_t dup_per_mille = 0;   // Chance a packet arrives twice.
  std::uint32_t reorder_per_mille = 0;  // Chance a packet is delayed past
                                        // later traffic (2× extra latency).
  std::size_t queue_limit = 64;      // Max in-flight packets per link.
};

class Network {
 public:
  Network(const LinkConfig& config, std::uint64_t seed, int nnodes);

  // Ships `len` bytes from `src`'s node to `dst`'s. The bytes are copied —
  // the caller's buffer (typically a zone kmsg held for retransmission) is
  // not referenced after return. Loss and queue overflow are silent here;
  // reliability is netipc's sequence/ack/retransmit protocol, not the wire's.
  void Transmit(NetIpc& src, NetIpc& dst, const std::byte* bytes, std::uint32_t len);

  const LinkConfig& config() const { return config_; }

  // Test hook: changes the loss rate mid-run (e.g. to partition a node and
  // drive a lazy-OOL pull to exhaustion). Determinism across runs only
  // holds if both runs change the rate at the same point.
  void SetDropPerMille(std::uint32_t per_mille) {
    config_.drop_per_mille = per_mille;
  }

 private:
  std::size_t LinkIndex(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(nnodes_) +
           static_cast<std::size_t>(dst);
  }

  // Posts delivery of `bytes` to `dst` at `when` in a wire buffer taken
  // from free_bufs_; the delivery event hands the buffer back.
  void Deliver(NetIpc& dst, const std::byte* bytes, std::uint32_t len,
               Ticks when, int link);

  LinkConfig config_;
  int nnodes_;
  Rng rng_;  // Network randomness is its own stream, independent of any node.
  std::vector<std::size_t> in_flight_;  // Per ordered pair, indexed src*n+dst.
  // Delivered packets' buffers, reused by later packets so the steady state
  // allocates none. Never holds more than the peak of packets in flight
  // (at most queue_limit per link).
  std::vector<std::vector<std::byte>> free_bufs_;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_NET_LINK_H_
