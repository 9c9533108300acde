// Unit tests for the raw context-switch primitives.
#include "src/machine/context.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

namespace mkc {
namespace {

constexpr std::size_t kStackSize = 64 * 1024;

struct PingPongState {
  Context main_ctx;
  Context other_ctx;
  std::vector<int> trace;
};

void PingPongEntry(void* pass, void* arg) {
  auto* st = static_cast<PingPongState*>(arg);
  EXPECT_EQ(pass, st);  // First switch delivered the pass value.
  st->trace.push_back(1);
  void* back = ContextSwitch(&st->other_ctx, st->main_ctx, st);
  EXPECT_EQ(back, st);
  st->trace.push_back(3);
  ContextJump(st->main_ctx, st);
}

TEST(ContextTest, SwitchAndJumpRoundTrip) {
  PingPongState st;
  std::vector<std::uint8_t> stack(kStackSize);
  Context fresh = MakeContext(stack.data(), stack.size(), &PingPongEntry, &st);

  void* got = ContextSwitch(&st.main_ctx, fresh, &st);
  EXPECT_EQ(got, &st);
  st.trace.push_back(2);
  got = ContextSwitch(&st.main_ctx, st.other_ctx, &st);
  EXPECT_EQ(got, &st);
  st.trace.push_back(4);

  EXPECT_EQ(st.trace, (std::vector<int>{1, 2, 3, 4}));
}

struct AlignProbe {
  Context main_ctx;
  bool ran = false;
};

void AlignmentEntry(void* /*pass*/, void* arg) {
  auto* probe = static_cast<AlignProbe*>(arg);
  // Force an SSE-using library call: misaligned stacks crash here.
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%f %s", 3.25, "alignment");
  EXPECT_STREQ(buffer, "3.250000 alignment");
  probe->ran = true;
  ContextJump(probe->main_ctx, nullptr);
}

TEST(ContextTest, FreshContextStackIsAbiAligned) {
  AlignProbe probe;
  std::vector<std::uint8_t> stack(kStackSize);
  Context fresh = MakeContext(stack.data(), stack.size(), &AlignmentEntry, &probe);
  ContextSwitch(&probe.main_ctx, fresh, nullptr);
  EXPECT_TRUE(probe.ran);
}

struct ChainState {
  Context main_ctx;
  int hops = 0;
};

void ChainEntry(void* pass, void* arg) {
  auto* st = static_cast<ChainState*>(static_cast<void*>(arg));
  st->hops += static_cast<int>(reinterpret_cast<std::uintptr_t>(pass));
  ContextJump(st->main_ctx, nullptr);
}

TEST(ContextTest, RepeatedFreshContextsOnSameStack) {
  // CallContinuation's pattern: rebuild a fresh context at the base of the
  // same stack over and over; the stack must not creep.
  ChainState st;
  std::vector<std::uint8_t> stack(kStackSize);
  for (int i = 0; i < 1000; ++i) {
    Context fresh = MakeContext(stack.data(), stack.size(), &ChainEntry,
                                static_cast<void*>(&st));
    ContextSwitch(&st.main_ctx, fresh, reinterpret_cast<void*>(std::uintptr_t{1}));
  }
  EXPECT_EQ(st.hops, 1000);
}

TEST(ContextTest, SwitchFreshEntryStackIsAbiAligned) {
  AlignProbe probe;
  std::vector<std::uint8_t> stack(kStackSize);
  ContextSwitchFresh(&probe.main_ctx, stack.data(), stack.size(), &AlignmentEntry, &probe,
                     nullptr);
  EXPECT_TRUE(probe.ran);
}

struct FreshState {
  Context main_ctx;
  Context entry_ctx;
  void* got_pass = nullptr;
  void* got_arg = nullptr;
  void* resumed_with = nullptr;
};

void FreshEntry(void* pass, void* arg) {
  auto* st = static_cast<FreshState*>(arg);
  st->got_pass = pass;
  st->got_arg = arg;
  // Resume the saved flow with a value of our own; it must come back out of
  // the ContextSwitchFresh call that suspended it.
  st->resumed_with = ContextSwitch(&st->entry_ctx, st->main_ctx, &st->got_pass);
  ContextJump(st->main_ctx, &st->got_arg);
}

TEST(ContextTest, SwitchFreshDeliversPassAndArgAndReturnsResumerValue) {
  FreshState st;
  int token = 0;
  std::vector<std::uint8_t> stack(kStackSize);
  void* back = ContextSwitchFresh(&st.main_ctx, stack.data(), stack.size(), &FreshEntry, &st,
                                  &token);
  EXPECT_EQ(st.got_pass, &token);
  EXPECT_EQ(st.got_arg, &st);
  EXPECT_EQ(back, &st.got_pass);
  // The fresh flow was itself saved; a switch back resumes it.
  back = ContextSwitch(&st.main_ctx, st.entry_ctx, &token);
  EXPECT_EQ(st.resumed_with, &token);
  EXPECT_EQ(back, &st.got_arg);
}

struct FreshChainState {
  Context main_ctx;
  std::uint8_t* stack = nullptr;
  std::size_t stack_size = 0;
  int hops = 0;
  void* first_frame = nullptr;
  int moved_frames = 0;  // Hops whose entry frame sat elsewhere than the first's.
};

void FreshChainEntry(void* pass, void* arg) {
  auto* st = static_cast<FreshChainState*>(arg);
  void* frame = __builtin_frame_address(0);
  if (st->hops == 0) {
    st->first_frame = frame;
  }
  st->moved_frames += frame != st->first_frame ? 1 : 0;
  st->hops += static_cast<int>(reinterpret_cast<std::uintptr_t>(pass));
  if (st->hops == 1000) {
    ContextJump(st->main_ctx, nullptr);
  }
  // CallContinuation's pattern: restart at the base of the stack we are
  // running on, abandoning this frame.
  ContextJumpFresh(st->stack, st->stack_size, &FreshChainEntry, st,
                   reinterpret_cast<void*>(std::uintptr_t{1}));
}

TEST(ContextTest, RepeatedJumpFreshOnSameStack) {
  // 1000 continuation hops on one stack: the stack must not creep.
  FreshChainState st;
  std::vector<std::uint8_t> stack(kStackSize);
  st.stack = stack.data();
  st.stack_size = stack.size();
  ContextSwitchFresh(&st.main_ctx, stack.data(), stack.size(), &FreshChainEntry, &st,
                     reinterpret_cast<void*>(std::uintptr_t{1}));
  EXPECT_EQ(st.hops, 1000);
  EXPECT_EQ(st.moved_frames, 0);
}

TEST(ContextTest, BackendReportsSavedWords) {
  EXPECT_GT(kContextSwitchSavedWords, 0);
  EXPECT_NE(kContextBackendName, nullptr);
}

}  // namespace
}  // namespace mkc
