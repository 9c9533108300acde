// Runner-side spans for the traced run.
//
// The runner opens a span around each of its own calls into the system (a
// user-mode stub such as UserRpc, a benchmark loop, a server loop) and
// records host ns and virtual ticks at entry and exit. All simulated threads
// share one host thread, so spans of different simulated threads interleave
// rather than nest: a client's UserRpc is still open when the server's
// UserServeOnce returns with the request.
//
// Self time therefore follows the one host timeline. Each interval between
// two consecutive span boundaries is charged to the innermost open span of
// the simulated thread that crossed the earlier boundary — the thread that
// was executing, as far as the runner can see. Within one thread this is
// the usual rule (a span's self time is its duration minus the time covered
// by its child spans). Across threads it splits an RPC into the request
// path (client stub entry until the server stub returns, charged to the
// client stub), the server body, the reply path (charged to the server
// stub) and the client's loop body.
//
// Accounting runs only while a window (one timed batch) is open, so the
// self times of a batch's spans plus the time charged to no span add up to
// the window exactly. Time charged to no span — a thread acting after its
// last span closed, such as a thread's exit path — is the residual.
#ifndef PERFBENCH_RUNNER_SPANS_H_
#define PERFBENCH_RUNNER_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "src/kern/kernel.h"

namespace perfbench {

class StepTracer {
 public:
  static constexpr int kActors = 2;  // Simulated threads that open spans.
  static constexpr int kDepth = 4;   // Max spans open per thread.

  struct Step {
    std::string name;
    std::int64_t self_ns = 0;
    std::uint64_t self_ticks = 0;
    std::uint64_t calls = 0;  // Spans entered inside a window.
  };

  int AddStep(std::string name) {
    steps_.push_back(Step{std::move(name)});
    return static_cast<int>(steps_.size()) - 1;
  }
  const Step& step(int id) const { return steps_[static_cast<std::size_t>(id)]; }
  int step_count() const { return static_cast<int>(steps_.size()); }

  // Opens a window on `actor` with `loop_step` as its outermost span.
  void OpenWindow(int actor, int loop_step) {
    Boundary(actor);  // Time before the window is charged to nothing.
    window_ = true;
    window_start_ns_ = last_ns_;
    window_start_ticks_ = last_ticks_;
    Push(actor, loop_step);
  }
  void CloseWindow(int actor) {
    Charge();
    Pop(actor);
    window_ns_ += last_ns_ - window_start_ns_;
    window_ticks_ += last_ticks_ - window_start_ticks_;
    window_ = false;
    last_actor_ = actor;
  }

  void Enter(int actor, int step) {
    Charge();
    Push(actor, step);
    last_actor_ = actor;
  }
  void Exit(int actor) {
    Charge();
    Pop(actor);
    last_actor_ = actor;
  }

  // Forgets every open span (the machine whose threads opened them is gone).
  void ResetActors() {
    for (Actor& a : actors_) {
      a.depth = 0;
    }
  }

  std::int64_t window_ns() const { return window_ns_; }
  std::uint64_t window_ticks() const { return window_ticks_; }
  std::int64_t residual_ns() const { return residual_ns_; }
  std::uint64_t residual_ticks() const { return residual_ticks_; }

 private:
  void Boundary(int actor) {
    Stamp();
    last_actor_ = actor;
  }
  void Stamp() {
    last_ns_ = HostNanos();
    last_ticks_ = mkc::ActiveKernel().VirtualTime();
  }
  // Charges [last boundary, now] to the innermost open span of the thread
  // that crossed the last boundary.
  void Charge() {
    std::int64_t prev_ns = last_ns_;
    std::uint64_t prev_ticks = last_ticks_;
    Stamp();
    if (!window_) {
      return;
    }
    std::int64_t dns = last_ns_ - prev_ns;
    std::uint64_t dticks = last_ticks_ - prev_ticks;
    const Actor& a = actors_[last_actor_];
    if (a.depth == 0) {
      residual_ns_ += dns;
      residual_ticks_ += dticks;
      return;
    }
    Step& s = steps_[static_cast<std::size_t>(a.open[a.depth - 1])];
    s.self_ns += dns;
    s.self_ticks += dticks;
  }
  void Push(int actor, int step) {
    Actor& a = actors_[actor];
    if (a.depth < kDepth) {
      a.open[a.depth++] = step;
    }
    if (window_) {
      ++steps_[static_cast<std::size_t>(step)].calls;
    }
  }
  void Pop(int actor) {
    Actor& a = actors_[actor];
    if (a.depth > 0) {
      --a.depth;
    }
  }

  struct Actor {
    int open[kDepth] = {};
    int depth = 0;
  };

  std::vector<Step> steps_;
  Actor actors_[kActors];
  int last_actor_ = 0;
  bool window_ = false;
  std::int64_t last_ns_ = 0;
  std::uint64_t last_ticks_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::uint64_t window_start_ticks_ = 0;
  std::int64_t window_ns_ = 0;
  std::uint64_t window_ticks_ = 0;
  std::int64_t residual_ns_ = 0;
  std::uint64_t residual_ticks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_SPANS_H_
