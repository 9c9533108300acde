// The SLO telemetry plane's windowed-tail tracker.
//
// Cumulative histograms answer "how did the whole run go"; an operator of
// the ROADMAP's million-user cluster needs "how are the last W ticks going"
// — windowed p50/p99/p99.9 per span kind, SLO violation counts, and
// error-budget burn. The tracker keeps, per span kind, one cumulative
// LatencyHistogram plus a ring of sub-window histograms advanced lazily
// against the virtual-time frontier:
//
//   * A recorded latency lands in the sub-window its span *ended* in.
//   * The sliding windowed view is the bucket-wise merge of the live
//     sub-windows (width = window ticks, granularity = window/subwindows).
//
// Per-window output is the snapshot stream's (src/obs/snapshot.h): a
// snapshot at boundary t reads WindowedKind(kind, t - 1), which with the
// snapshot interval equal to the window is exactly the completed tumbling
// window [t - window, t).
//
// Everything is integral virtual-tick arithmetic over deterministic span
// events, so for a fixed (config, seed) every quantile, violation count and
// burn figure is bit-identical across runs. The tracker is a pure observer:
// it never charges cycles, so arming it does not move the simulation by one
// tick (the CI overhead gate holds it to that).
#ifndef MACHCONT_SRC_OBS_SLO_H_
#define MACHCONT_SRC_OBS_SLO_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace mkc {

struct SloConfig {
  Ticks window = 200000;        // Sliding-window width in virtual ticks.
  int subwindows = 8;           // Ring granularity (window / subwindows per slot).
  // Per-kind latency targets in virtual ticks; 0 = no target (never violates).
  Ticks target_rpc = 25000;
  Ticks target_fault = 12000;
  Ticks target_exc = 12000;
  // SLO objective in per-mille: 990 means 99.0% of requests must meet the
  // target, i.e. the error budget is 1% of traffic per window.
  std::uint32_t objective_permille = 990;
};

// A windowed or cumulative per-kind view, for reports and snapshots.
struct SloKindSnapshot {
  std::uint64_t count = 0;
  Ticks p50 = 0;
  Ticks p99 = 0;
  Ticks p999 = 0;
  std::uint64_t violations = 0;
};

class SloTracker {
 public:
  // Span kinds tracked by the default tracker: rpc, fault, exception
  // (SpanKind::kRpc..kException).
  static constexpr int kKinds = 3;

  explicit SloTracker(const SloConfig& config);

  // Custom-kind tracker: an arbitrary list of (name, latency target) kinds
  // recorded directly through Record() instead of the span hooks. The
  // service fabric's per-service-kind tails use this; the default ctor
  // remains byte-identical to the fixed three-kind tracker.
  SloTracker(const SloConfig& config, std::vector<std::pair<std::string, Ticks>> kinds);

  // Span-layer hooks (Kernel::SpanBegin / SpanEnd). `now` is the machine
  // frontier (TraceNow), so windows advance monotonically.
  void OnSpanBegin(std::uint32_t id, SpanKind kind, Ticks now);
  void OnSpanEnd(std::uint32_t id, SpanKind kind, Ticks now);

  // Direct recording for custom-kind trackers (and the span hooks' shared
  // tail): one latency sample of `kind` observed at frontier `now`.
  void Record(int kind, Ticks latency, Ticks now);

  // Rolls the sub-window ring forward to `now`, recycling the slots of
  // sub-windows that fell out of the window. Called implicitly by the hooks
  // and the views.
  void AdvanceTo(Ticks now);

  // Sliding-window view of one kind at `now` (merge of the live sub-windows).
  SloKindSnapshot WindowedKind(int kind, Ticks now);
  // Whole-run view of one kind.
  SloKindSnapshot CumulativeKind(int kind) const;

  // The "slo" block for the metrics-JSON dump: config, cumulative and
  // windowed per-kind stats. Advances the ring to `now` first.
  std::string JsonBlock(Ticks now);

  // Cluster-merged view: bucket-exact fold of every node's cumulative
  // histograms and violation counts (LatencyHistogram::Merge semantics, so
  // quantiles are exactly what one global tracker would have reported).
  static std::string MergedJsonBlock(const std::vector<const SloTracker*>& nodes);

  const SloConfig& config() const { return config_; }
  static const char* KindName(int kind);
  int kind_count() const { return static_cast<int>(kinds_.size()); }
  // Instance-aware name: custom-kind trackers report their own names.
  const char* kind_name(int kind) const;
  Ticks target(int kind) const { return targets_[kind]; }
  std::uint64_t spans_recorded() const { return spans_recorded_; }

 private:
  struct SubWindow {
    LatencyHistogram hist;
    std::uint64_t violations = 0;
  };
  struct KindState {
    LatencyHistogram cumulative;
    std::uint64_t cum_violations = 0;
    std::vector<SubWindow> ring;  // subwindows slots, indexed by abs index % size.
  };

  void AppendKindJson(std::string* out, const SloKindSnapshot& s);
  double Burn(std::uint64_t violations, std::uint64_t count) const;

  SloConfig config_;
  Ticks sub_ticks_;
  std::vector<std::string> names_;
  std::vector<Ticks> targets_;
  std::vector<KindState> kinds_;
  std::uint64_t cur_sub_ = 0;  // Absolute sub-window index of the frontier.
  std::uint64_t spans_recorded_ = 0;
  // Open spans: id -> (begin tick, kind). Latency is measured begin-to-end
  // here rather than from Thread::span_start, which SpanAdopt restarts for
  // the watchdog's stuck-span clock.
  std::unordered_map<std::uint32_t, std::pair<Ticks, std::uint8_t>> open_;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_SLO_H_
