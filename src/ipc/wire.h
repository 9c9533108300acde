// Wire (de)serialization for cross-node Mach IPC (src/net/netipc.h).
//
// A wire packet is a WireHeader optionally followed by the inline message
// body. DATA packets carry a rewritten mach header (dest = the real port on
// the destination node, reply = the reply port's home reference) plus the
// body bytes and the size of any out-of-line payload; control packets (ACK,
// DEAD, PORT_DEATH) are a bare header. Everything is fixed-width
// little-struct layout copied with memcpy, so a packet round-trips
// byte-exactly — including the PR-3 causal span id riding in the mach
// header, which is how one RPC stays one span chain across nodes.
//
// The header is 64 bytes: a 48-byte base (kind, node, seq, mach header)
// plus a 16-byte extension that piggybacks a cumulative ack + SACK bitmap
// on every sequenced packet and carries the lazy-OOL pull cookie used by
// the FRAME_BATCH, OOL_PULL and OOL_DATA kinds.
#ifndef MACHCONT_SRC_IPC_WIRE_H_
#define MACHCONT_SRC_IPC_WIRE_H_

#include <cstddef>
#include <cstdint>

#include "src/ipc/message.h"

namespace mkc {

enum class WireKind : std::uint32_t {
  kData = 1,        // A forwarded mach message; seq-numbered, retransmitted.
  kAck = 2,         // Cumulative acknowledgement: seq = highest in-order seq.
  kDead = 3,        // DATA `seq` was delivered to a dead port (also acks ≤ seq).
  kPortDeath = 4,   // Port `seq` on src_node died: GC proxies for it.
  kFrameBatch = 5,  // Coalesced frame: payload = [u32 len][packet] entries.
  kOolPull = 6,     // Lazy-OOL pull request for cookie `ool_cookie`; sequenced.
  kOolData = 7,     // Lazy-OOL payload chunk; sequenced. msg_id = byte offset.
};

struct WireHeader {
  std::uint32_t kind = 0;        // WireKind.
  std::uint32_t src_node = 0;    // Sending node id.
  std::uint32_t seq = 0;         // Meaning depends on kind (see WireKind).
  std::uint32_t reply_node = 0;  // DATA: node the mach reply port lives on.
  std::uint32_t ool_size = 0;    // DATA: out-of-line payload bytes (0 = none).
  MessageHeader mach;            // DATA: the forwarded mach header.
  // ---- extension: selective-repeat acks and the lazy-OOL cookie ----
  std::uint64_t sack = 0;        // Bit i set: seq `ack + 1 + i` is buffered
                                 // out-of-order at the receiver.
  std::uint32_t ack = 0;         // Cumulative ack: highest in-order seq
                                 // received on the reverse channel.
  std::uint32_t ool_cookie = 0;  // DATA: lazy-OOL pull cookie (0 = the
                                 // payload was not retained for pulling).
                                 // OOL_PULL/OOL_DATA: the cookie pulled.
};

// The mach header is seven naturally-aligned 32-bit words and the base
// wire header five more; the extension starts 8-aligned at offset 48
// (u64 + 2×u32). The layout is padding-free, so memcpy round-trips are
// byte-exact by construction.
static_assert(sizeof(MessageHeader) == 28, "mach header layout drifted");
static_assert(sizeof(WireHeader) == 64, "wire header layout drifted");
static_assert(offsetof(WireHeader, sack) == 48, "wire extension moved");
static_assert(offsetof(WireHeader, ack) == 56, "wire extension moved");
static_assert(offsetof(WireHeader, ool_cookie) == 60, "wire extension moved");

inline constexpr std::uint32_t kWireHeaderBytes = sizeof(WireHeader);

// Largest body a wire packet can carry: the whole packet must fit a
// full-size kmsg element. Cross-node sends above this fail at the proxy
// (documented in docs/INTERNALS.md).
inline constexpr std::uint32_t kMaxWireBody = kMaxInlineBytes - kWireHeaderBytes;

// Serializes `header` (+ `body_bytes` of `body`) into `out`. Returns the
// packet length, or 0 if it does not fit `out_capacity`.
std::uint32_t WireSerialize(const WireHeader& header, const void* body,
                            std::uint32_t body_bytes, std::byte* out,
                            std::uint32_t out_capacity);

// Parses a packet. On success `*header` is filled, `*body` points into
// `bytes` (null for control packets) and `*body_bytes` is the body length.
// Returns false for truncated or inconsistent packets and unknown kinds.
bool WireDeserialize(const std::byte* bytes, std::uint32_t len, WireHeader* header,
                     const std::byte** body, std::uint32_t* body_bytes);

}  // namespace mkc

#endif  // MACHCONT_SRC_IPC_WIRE_H_
