#include "src/net/link.h"

#include "src/base/vclock.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/net/netipc.h"

namespace mkc {

Network::Network(const LinkConfig& config, std::uint64_t seed, int nnodes)
    : config_(config), nnodes_(nnodes) , rng_(seed) {
  in_flight_.assign(static_cast<std::size_t>(nnodes) * static_cast<std::size_t>(nnodes), 0);
}

void Network::Transmit(NetIpc& src, NetIpc& dst, const std::byte* bytes,
                       std::uint32_t len) {
  Kernel& sk = src.kernel();
  NetStats& st = src.stats();

  // Copying the packet onto the wire is the sending node's machine time,
  // costed like any other message copy.
  const std::uint64_t words = len / 8 + 2;
  sk.cost_model().Account(CostOp::kMsgCopy, words, words);
  sk.ChargeCycles(kCycMsgCopyBase + words * kCycMsgCopyPerWord);

  ++st.packets_tx;
  st.bytes_tx += len;

  const int link = static_cast<int>(LinkIndex(src.node_id(), dst.node_id()));
  if (in_flight_[static_cast<std::size_t>(link)] >= config_.queue_limit) {
    ++st.queue_full;  // Link queue overflow: drop at the NIC.
    return;
  }
  if (config_.drop_per_mille > 0 && rng_.Chance(config_.drop_per_mille)) {
    ++st.drops;
    return;
  }

  // A reordered packet takes the slow path: two extra propagation delays,
  // enough for later traffic on the same link to overtake it. The roll is
  // gated on the rate so legacy configs consume an identical RNG sequence.
  Ticks extra = 0;
  if (config_.reorder_per_mille > 0 && rng_.Chance(config_.reorder_per_mille)) {
    ++st.reorders;
    extra = 2 * config_.latency;
  }

  // Arrival is computed against the sender's whole-machine frontier: the
  // packet cannot arrive before it finished being sent.
  const Ticks when = sk.VirtualTime() + config_.latency + config_.per_byte * len + extra;
  Deliver(dst, bytes, len, when, link);
  if (config_.dup_per_mille > 0 && rng_.Chance(config_.dup_per_mille) &&
      in_flight_[static_cast<std::size_t>(link)] < config_.queue_limit) {
    ++st.dups;
    Deliver(dst, bytes, len, when + 1, link);
  }
}

void Network::Deliver(NetIpc& dst, const std::byte* bytes, std::uint32_t len,
                      Ticks when, int link) {
  ++in_flight_[static_cast<std::size_t>(link)];
  std::vector<std::byte> data;
  if (!free_bufs_.empty()) {
    data = std::move(free_bufs_.back());
    free_bufs_.pop_back();
  }
  data.assign(bytes, bytes + len);
  dst.kernel().events().Post(
      when, [this, &dst, link, data = std::move(data)]() mutable {
        --in_flight_[static_cast<std::size_t>(link)];
        dst.DeliverWire(data.data(), static_cast<std::uint32_t>(data.size()));
        free_bufs_.push_back(std::move(data));
      });
}

}  // namespace mkc
