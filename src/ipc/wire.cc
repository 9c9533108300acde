#include "src/ipc/wire.h"

#include <cstring>

namespace mkc {

namespace {

// Kinds that carry a payload record its length in mach.size so truncation
// is detectable; everything else must be a bare header.
bool KindCarriesBody(std::uint32_t kind) {
  return kind == static_cast<std::uint32_t>(WireKind::kData) ||
         kind == static_cast<std::uint32_t>(WireKind::kFrameBatch) ||
         kind == static_cast<std::uint32_t>(WireKind::kOolData);
}

}  // namespace

std::uint32_t WireSerialize(const WireHeader& header, const void* body,
                            std::uint32_t body_bytes, std::byte* out,
                            std::uint32_t out_capacity) {
  const std::uint32_t total = kWireHeaderBytes + body_bytes;
  if (total > out_capacity) {
    return 0;
  }
  std::memcpy(out, &header, kWireHeaderBytes);
  if (body_bytes > 0) {
    std::memcpy(out + kWireHeaderBytes, body, body_bytes);
  }
  return total;
}

bool WireDeserialize(const std::byte* bytes, std::uint32_t len, WireHeader* header,
                     const std::byte** body, std::uint32_t* body_bytes) {
  if (len < kWireHeaderBytes) {
    return false;
  }
  std::memcpy(header, bytes, kWireHeaderBytes);
  if (header->kind < static_cast<std::uint32_t>(WireKind::kData) ||
      header->kind > static_cast<std::uint32_t>(WireKind::kOolData)) {
    return false;
  }
  const std::uint32_t payload = len - kWireHeaderBytes;
  if (KindCarriesBody(header->kind)) {
    // A payload-carrying packet's mach header records the inline body size;
    // the packet length must agree or the message was truncated in flight.
    if (header->mach.size != payload) {
      return false;
    }
  } else if (payload != 0) {
    return false;
  }
  *body = payload > 0 ? bytes + kWireHeaderBytes : nullptr;
  *body_bytes = payload;
  return true;
}

}  // namespace mkc
