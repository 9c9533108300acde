// Wire-format tests: netipc packets round-trip byte-exactly (header, inline
// body, OOL size, span id), malformed packets are rejected, and the common
// small-RPC sizes stay in the small kmsg zone class.
#include <gtest/gtest.h>

#include <cstring>

#include "src/ipc/ipc_space.h"
#include "src/ipc/wire.h"
#include "src/kern/kernel.h"

namespace mkc {
namespace {

WireHeader MakeDataHeader(std::uint32_t body_bytes) {
  WireHeader w;
  w.kind = static_cast<std::uint32_t>(WireKind::kData);
  w.src_node = 3;
  w.seq = 41;
  w.reply_node = 1;
  w.ool_size = 0;
  w.mach.dest = 70007;
  w.mach.reply = 90009;
  w.mach.msg_id = 77;
  w.mach.size = body_bytes;
  w.mach.bits = 0;
  w.mach.seqno = 5;
  w.mach.span = 0xabcdef;
  return w;
}

TEST(WireTest, HeaderLayoutIsFixed) {
  EXPECT_EQ(sizeof(WireHeader), static_cast<std::size_t>(kWireHeaderBytes));
  EXPECT_EQ(kMaxWireBody, kMaxInlineBytes - kWireHeaderBytes);
}

TEST(WireTest, DataRoundTripIsByteExact) {
  std::byte body[64];
  for (int i = 0; i < 64; ++i) {
    body[i] = static_cast<std::byte>(i * 3 + 1);
  }
  WireHeader w = MakeDataHeader(64);
  std::byte out[kMaxInlineBytes];
  std::uint32_t len = WireSerialize(w, body, 64, out, sizeof(out));
  ASSERT_EQ(len, kWireHeaderBytes + 64);

  WireHeader got;
  const std::byte* got_body = nullptr;
  std::uint32_t got_bytes = 0;
  ASSERT_TRUE(WireDeserialize(out, len, &got, &got_body, &got_bytes));
  // The whole header — Mach header, span id and all — must survive exactly.
  EXPECT_EQ(0, std::memcmp(&got, &w, sizeof(WireHeader)));
  ASSERT_EQ(got_bytes, 64u);
  EXPECT_EQ(0, std::memcmp(got_body, body, 64));
}

TEST(WireTest, OolSizeAndSpanSurvive) {
  WireHeader w = MakeDataHeader(16);
  w.ool_size = 8192;
  w.mach.bits = kMsgHeaderOolBit;
  w.mach.span = 0x01020304;
  std::byte body[16] = {};
  std::byte out[kMaxInlineBytes];
  std::uint32_t len = WireSerialize(w, body, 16, out, sizeof(out));
  ASSERT_GT(len, 0u);

  WireHeader got;
  const std::byte* got_body = nullptr;
  std::uint32_t got_bytes = 0;
  ASSERT_TRUE(WireDeserialize(out, len, &got, &got_body, &got_bytes));
  EXPECT_EQ(got.ool_size, 8192u);
  EXPECT_EQ(got.mach.bits, kMsgHeaderOolBit);
  EXPECT_EQ(got.mach.span, 0x01020304u);
}

TEST(WireTest, ControlPacketsAreHeaderOnly) {
  WireHeader w;
  w.kind = static_cast<std::uint32_t>(WireKind::kAck);
  w.src_node = 1;
  w.seq = 99;  // Cumulative ack.
  std::byte out[kMaxInlineBytes];
  std::uint32_t len = WireSerialize(w, nullptr, 0, out, sizeof(out));
  ASSERT_EQ(len, kWireHeaderBytes);

  WireHeader got;
  const std::byte* got_body = nullptr;
  std::uint32_t got_bytes = 0;
  ASSERT_TRUE(WireDeserialize(out, len, &got, &got_body, &got_bytes));
  EXPECT_EQ(got.kind, static_cast<std::uint32_t>(WireKind::kAck));
  EXPECT_EQ(got.seq, 99u);
  EXPECT_EQ(got_bytes, 0u);

  // A control packet with trailing payload is malformed.
  ASSERT_TRUE(WireDeserialize(out, len, &got, &got_body, &got_bytes));
  std::byte padded[kWireHeaderBytes + 4] = {};
  std::memcpy(padded, out, kWireHeaderBytes);
  EXPECT_FALSE(
      WireDeserialize(padded, sizeof(padded), &got, &got_body, &got_bytes));
}

TEST(WireTest, RejectsTruncatedAndBadPackets) {
  WireHeader w = MakeDataHeader(32);
  std::byte body[32] = {};
  std::byte out[kMaxInlineBytes];
  std::uint32_t len = WireSerialize(w, body, 32, out, sizeof(out));
  ASSERT_GT(len, 0u);

  WireHeader got;
  const std::byte* got_body = nullptr;
  std::uint32_t got_bytes = 0;
  // Shorter than a header — including a bare 48-byte header without the
  // ack/SACK/cookie extension.
  EXPECT_FALSE(WireDeserialize(out, kWireHeaderBytes - 1, &got, &got_body, &got_bytes));
  EXPECT_FALSE(WireDeserialize(out, 48, &got, &got_body, &got_bytes));
  // DATA whose mach.size disagrees with the packet length.
  EXPECT_FALSE(WireDeserialize(out, len - 4, &got, &got_body, &got_bytes));
  // Unknown kind.
  std::byte bad[sizeof(out)];
  std::memcpy(bad, out, len);
  WireHeader mangled = w;
  mangled.kind = 200;
  std::memcpy(bad, &mangled, sizeof(WireHeader));
  EXPECT_FALSE(WireDeserialize(bad, len, &got, &got_body, &got_bytes));
}

TEST(WireTest, OversizeBodyDoesNotSerialize) {
  WireHeader w = MakeDataHeader(kMaxWireBody + 1);
  std::byte body[kMaxInlineBytes] = {};
  std::byte out[kMaxInlineBytes];
  EXPECT_EQ(WireSerialize(w, body, kMaxWireBody + 1, out, sizeof(out)), 0u);
  // And exactly at the limit it fits.
  w.mach.size = kMaxWireBody;
  EXPECT_EQ(WireSerialize(w, body, kMaxWireBody, out, sizeof(out)),
            static_cast<std::uint32_t>(kMaxInlineBytes));
}

// --- Extension (selective repeat) -------------------------------------------

TEST(WireTest, SackExtensionRoundTripsByteExact) {
  WireHeader w = MakeDataHeader(32);
  w.sack = 0xdeadbeefcafef00dull;
  w.ack = 4096;
  w.ool_cookie = 777;
  std::byte body[32];
  for (int i = 0; i < 32; ++i) {
    body[i] = static_cast<std::byte>(i ^ 0x5a);
  }
  std::byte out[kMaxInlineBytes];
  std::uint32_t len = WireSerialize(w, body, 32, out, sizeof(out));
  ASSERT_EQ(len, kWireHeaderBytes + 32);

  // The extension is plain struct bytes at its fixed offsets — no encoding.
  std::uint64_t sack_raw = 0;
  std::uint32_t ack_raw = 0;
  std::uint32_t cookie_raw = 0;
  std::memcpy(&sack_raw, out + offsetof(WireHeader, sack), sizeof(sack_raw));
  std::memcpy(&ack_raw, out + offsetof(WireHeader, ack), sizeof(ack_raw));
  std::memcpy(&cookie_raw, out + offsetof(WireHeader, ool_cookie),
              sizeof(cookie_raw));
  EXPECT_EQ(sack_raw, w.sack);
  EXPECT_EQ(ack_raw, w.ack);
  EXPECT_EQ(cookie_raw, w.ool_cookie);

  WireHeader got;
  const std::byte* got_body = nullptr;
  std::uint32_t got_bytes = 0;
  ASSERT_TRUE(WireDeserialize(out, len, &got, &got_body, &got_bytes));
  EXPECT_EQ(0, std::memcmp(&got, &w, sizeof(WireHeader)));
  ASSERT_EQ(got_bytes, 32u);
  EXPECT_EQ(0, std::memcmp(got_body, body, 32));
}

TEST(WireTest, SmallRpcRidesTheSmallKmsgZone) {
  // A 64-byte RPC body plus the wire header fits the 128-byte kmsg class, so
  // the netipc hot path allocates from the small zone's per-CPU magazines.
  ASSERT_LE(kWireHeaderBytes + 64, kSmallKmsgBytes);
  KernelConfig config;
  Kernel kernel(config);
  KMessage* kmsg = kernel.ipc().TryAllocKmsg(kWireHeaderBytes + 64);
  ASSERT_NE(kmsg, nullptr);
  EXPECT_EQ(kmsg->body_capacity, kSmallKmsgBytes);
  kernel.ipc().FreeKmsg(kmsg);
}

}  // namespace
}  // namespace mkc
