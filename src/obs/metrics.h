// The kernel-wide metrics registry: named counters, gauges and fixed-bucket
// log-scale latency histograms.
//
// The paper's whole argument is quantitative (Tables 1-5 count discards,
// handoffs, recognitions and stacks), so every subsystem's statistics are
// registered here under stable names and exported as machine-readable JSON
// (MetricsRegistry::DumpJson) for benches, tools and CI.
//
// Design constraints:
//  * Counters and gauges are *views* over storage the subsystems already own
//    (TransferStats, IpcStats, VmStats, ExcStats, StackPoolStats), so the
//    existing accessors keep working unchanged and the hot paths keep their
//    single-increment cost.
//  * Histograms are owned by the registry but allocated once at registration
//    time (kernel construction); Record() is pure arithmetic into a fixed
//    array — no allocation ever happens on a block/handoff hot path.
//  * All latency values are virtual Ticks, so distributions are
//    bit-deterministic per (config, seed) — the same property the virtual
//    clock gives the block counts.
#ifndef MACHCONT_SRC_OBS_METRICS_H_
#define MACHCONT_SRC_OBS_METRICS_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace mkc {

// Appends `v` in decimal: the one integer writer behind the registry dump,
// the SLO blocks, snapshot rows and folded profiles.
void AppendU64(std::string* out, std::uint64_t v);

// Fixed-bucket log2 histogram of virtual-tick latencies.
//
// Bucket 0 holds the value 0; bucket i (i >= 1) holds values whose bit width
// is i, i.e. the range [2^(i-1), 2^i - 1]. Percentiles report the upper
// bound of the bucket containing the requested rank (clamped to the observed
// max), which keeps them integral and deterministic.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 49;  // 0 plus bit widths 1..48 (~2.8e14 ticks).

  void Record(Ticks value) {
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) {
      min_ = value;
    }
    if (value > max_) {
      max_ = value;
    }
    ++buckets_[BucketIndex(value)];
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  Ticks min() const { return count_ == 0 ? 0 : min_; }
  Ticks max() const { return max_; }
  std::uint64_t bucket(int i) const { return buckets_[i]; }

  // Upper bound of bucket i: 0 for bucket 0, 2^i - 1 otherwise.
  static Ticks BucketUpperBound(int i);
  // Lower bound of bucket i: 0 for bucket 0, 2^(i-1) otherwise.
  static Ticks BucketLowerBound(int i);

  // Value at or below which `p` percent of recordings fall (bucket upper
  // bound, clamped to the observed max). 0 when empty.
  Ticks Percentile(double p) const;

  Ticks P50() const { return Percentile(50.0); }
  Ticks P90() const { return Percentile(90.0); }
  Ticks P99() const { return Percentile(99.0); }
  Ticks P999() const { return Percentile(99.9); }

  // Folds `other` into this histogram, bucket-wise. Because the bucket
  // boundaries are fixed, merging N shards is exactly equivalent to having
  // recorded every value into one histogram: counts, sums, min/max and all
  // percentiles come out identical. Used to present per-CPU shards as one
  // machine-wide histogram without double-counting.
  void Merge(const LatencyHistogram& other) {
    if (other.count_ == 0) {
      return;
    }
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  void Reset() { *this = LatencyHistogram{}; }

 private:
  static int BucketIndex(Ticks value) {
    int width = std::bit_width(value);  // 0 for the value 0.
    return width < kBuckets ? width : kBuckets - 1;
  }

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  Ticks min_ = 0;
  Ticks max_ = 0;
};

// Named registry of counters, gauges and histograms. Registration happens at
// kernel construction; lookup by name is for tools and tests, never for hot
// paths (which hold the returned pointers).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Free-form metadata (model name, seed...) carried into the JSON dump.
  void SetLabel(std::string key, std::string value);

  // Registers a monotonically increasing counter as a view over external
  // storage (which must outlive the registry).
  void RegisterCounter(std::string name, const std::uint64_t* value);

  // Registers a point-in-time gauge as a view over external storage.
  void RegisterGauge(std::string name, const std::uint64_t* value);

  // Creates and registers a histogram; the returned pointer is stable for
  // the registry's lifetime and is what hot paths record through.
  LatencyHistogram* RegisterHistogram(std::string name);

  // Registers a read-only merged view: dumps and ForEachHistogram present
  // the fold (LatencyHistogram::Merge) of `sources` under `name`. The view
  // owns no storage — hot paths keep recording into the sources — so
  // nothing is double-counted and ResetHistograms has nothing to clear.
  // Source pointers must outlive the registry entry.
  void RegisterMergedHistogram(std::string name,
                               std::vector<const LatencyHistogram*> sources);

  // Name lookup (linear; tools and tests only). Null when absent.
  const std::uint64_t* FindCounter(const std::string& name) const;
  const std::uint64_t* FindGauge(const std::string& name) const;
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  template <typename Fn>  // Fn(const std::string&, std::uint64_t)
  void ForEachCounter(Fn&& fn) const {
    for (const auto& c : counters_) {
      fn(c.name, *c.value);
    }
  }

  template <typename Fn>  // Fn(const std::string&, const LatencyHistogram&)
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& h : histograms_) {
      if (h.sources.empty()) {
        fn(h.name, *h.hist);
      } else {
        fn(h.name, MaterializeMerged(h));
      }
    }
  }

  // Registers an extra top-level JSON block emitted after "histograms" as
  // `,"<name>":<fn()>`; fn must return one complete JSON value. Subsystems
  // that are off-by-default (the SLO tracker) register their block only when
  // armed, so recorders-off dumps stay byte-identical to builds that predate
  // the subsystem. Re-registering a name replaces its producer.
  void SetJsonBlock(std::string name, std::function<std::string()> fn);

  // Clears every histogram (counter/gauge storage is owned and reset by the
  // subsystems themselves — Kernel::ResetStats).
  void ResetHistograms();

  // Serializes the whole registry as one JSON object:
  //   {"meta":{...},"counters":{...},"gauges":{...},"histograms":{...}}
  // Deterministic: registration order, integral values only.
  void DumpJson(std::FILE* out) const;
  std::string DumpJsonString() const;

 private:
  struct View {
    std::string name;
    const std::uint64_t* value;
  };
  struct Hist {
    std::string name;
    std::unique_ptr<LatencyHistogram> hist;  // Null for merged views.
    std::vector<const LatencyHistogram*> sources;  // Non-empty for merged views.
  };

  static LatencyHistogram MaterializeMerged(const Hist& h) {
    LatencyHistogram merged;
    for (const LatencyHistogram* src : h.sources) {
      merged.Merge(*src);
    }
    return merged;
  }

  std::vector<std::pair<std::string, std::string>> labels_;
  std::vector<View> counters_;
  std::vector<View> gauges_;
  std::vector<Hist> histograms_;
  std::vector<std::pair<std::string, std::function<std::string()>>> json_blocks_;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_METRICS_H_
