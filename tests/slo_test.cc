// The SLO telemetry plane: windowed-tail determinism and decay, cluster
// merge exactness, adversarial quantiles, tail-based trace sampling with
// exact accounting, snapshot rows carrying exactly each completed window,
// and the snapshot stream's two sinks end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/trace.h"
#include "src/kern/kernel.h"
#include "src/net/cluster.h"
#include "src/obs/collector.h"
#include "src/obs/critical_path.h"
#include "src/obs/slo.h"
#include "src/obs/snapshot.h"
#include "src/task/task.h"
#include "src/task/usermode.h"
#include "src/workload/workload.h"

namespace mkc {
namespace {

// Feeds one rpc span of `latency` ticks ending at `end` into `t`.
void Span(SloTracker& t, std::uint32_t id, Ticks end, Ticks latency) {
  t.OnSpanBegin(id, SpanKind::kRpc, end - latency);
  t.OnSpanEnd(id, SpanKind::kRpc, end);
}

// A latency recorded in one sub-window stays in the sliding windowed view
// for exactly `subwindows` sub-window advances, then decays.
TEST(SloTest, SubWindowAdvanceAndDecay) {
  SloConfig config;
  config.window = 800;
  config.subwindows = 8;  // 100 ticks per sub-window.
  config.target_rpc = 40;
  SloTracker t(config);

  Span(t, 1, /*end=*/60, /*latency=*/50);  // Lands in sub-window 0; violates.
  EXPECT_EQ(t.WindowedKind(0, 60).count, 1u);
  EXPECT_EQ(t.WindowedKind(0, 60).violations, 1u);

  // Frontier at 799, the last tick of window 0: the ring holds exactly
  // the completed window, which is what a snapshot at boundary 800 reads.
  EXPECT_EQ(t.WindowedKind(0, 799).count, 1u);
  EXPECT_EQ(t.WindowedKind(0, 799).violations, 1u);

  // Frontier crosses the window boundary: the record decays out of the
  // sliding view.
  EXPECT_EQ(t.WindowedKind(0, 850).count, 0u);
  // Budget is 1% (objective 990); a 100% violation rate burns 100x.
  EXPECT_NE(t.JsonBlock(850).find("\"violations\":1,\"burn\":100.00"), std::string::npos);

  // Cumulative view never decays.
  EXPECT_EQ(t.CumulativeKind(0).count, 1u);
  EXPECT_EQ(t.CumulativeKind(0).violations, 1u);
}

// Identical event streams produce byte-identical JSON blocks — the
// determinism the two-run ctest checks rely on.
TEST(SloTest, IdenticalStreamsAreByteIdentical) {
  SloConfig config;
  config.window = 1000;
  config.subwindows = 4;
  SloTracker a(config);
  SloTracker b(config);
  for (std::uint32_t id = 1; id <= 200; ++id) {
    Ticks end = static_cast<Ticks>(id) * 37;
    Span(a, id, end, (id * 13) % 400);
    Span(b, id, end, (id * 13) % 400);
  }
  EXPECT_EQ(a.JsonBlock(8000), b.JsonBlock(8000));
  for (Ticks now = 0; now <= 8000; now += 250) {
    EXPECT_EQ(a.WindowedKind(0, now).p99, b.WindowedKind(0, now).p99);
  }
}

// The cluster merge is bucket-exact: two shards folded together report the
// same counts, violations and quantiles as one tracker that saw everything.
TEST(SloTest, MergedViewMatchesSingleTracker) {
  SloConfig config;
  SloTracker shard_a(config);
  SloTracker shard_b(config);
  SloTracker global(config);
  for (std::uint32_t id = 1; id <= 100; ++id) {
    Ticks end = 100000 + static_cast<Ticks>(id) * 500;
    Ticks latency = (id % 10 == 0) ? 90000 : 120 + id;  // Tail every 10th.
    Span(id % 2 == 0 ? shard_a : shard_b, id, end, latency);
    Span(global, id, end, latency);
  }
  std::string merged =
      SloTracker::MergedJsonBlock({&shard_a, &shard_b});
  std::string solo = SloTracker::MergedJsonBlock({&global});
  // Same fold, different node counts: compare everything after the prefix.
  EXPECT_EQ(merged.substr(merged.find("\"kinds\"")),
            solo.substr(solo.find("\"kinds\"")));
  EXPECT_NE(merged.find("\"nodes\":2"), std::string::npos);

  SloKindSnapshot g = global.CumulativeKind(0);
  SloKindSnapshot a = shard_a.CumulativeKind(0);
  SloKindSnapshot b = shard_b.CumulativeKind(0);
  EXPECT_EQ(a.count + b.count, g.count);
  EXPECT_EQ(a.violations + b.violations, g.violations);
}

// Adversarial distribution for p99.9: 998 fast requests hide 2 outliers.
// p99 must stay in the fast bucket while p99.9 surfaces the outlier (with
// the histogram's clamp-to-max semantics), and both outliers violate.
TEST(SloTest, P999SurfacesRareOutliers) {
  SloConfig config;
  config.window = 1u << 30;  // Everything in one window.
  SloTracker t(config);
  std::uint32_t id = 1;
  for (int i = 0; i < 998; ++i) {
    Span(t, id++, 2000000 + static_cast<Ticks>(i), 100);
  }
  Span(t, id++, 3000000, 1000000);
  Span(t, id++, 3000001, 1000000);

  SloKindSnapshot s = t.CumulativeKind(0);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p99, 127u);        // Upper bound of the [64,127] bucket.
  EXPECT_EQ(s.p999, 1000000u);   // Outlier bucket, clamped to the max.
  EXPECT_EQ(s.violations, 2u);   // Only the outliers exceed 25000.
}

// Arming the SLO tracker or the snapshot stream's local sink must not move
// the simulation by a single tick: span bookkeeping and snapshots happen
// outside the cycle model.
void CountSnapshotRows(Kernel& kernel, void* arg) {
  *static_cast<std::uint64_t*>(arg) = kernel.snapshots()->taken().size();
}

TEST(SloTest, SloArmedDoesNotPerturbVirtualTime) {
  WorkloadParams params;
  params.scale = 1;

  KernelConfig off;
  WorkloadReport r_off = RunServerFarmWorkload(off, params);

  KernelConfig armed;
  armed.slo_window = 200000;
  WorkloadReport r_slo = RunServerFarmWorkload(armed, params);

  EXPECT_EQ(r_off.virtual_time, r_slo.virtual_time);
  EXPECT_EQ(r_off.ipc.messages_sent, r_slo.ipc.messages_sent);
  EXPECT_EQ(r_off.transfer.total_blocks, r_slo.transfer.total_blocks);

  for (Ticks window : {Ticks{0}, Ticks{200000}}) {
    KernelConfig snap;
    snap.slo_window = window;
    snap.snapshot_interval = 50000;
    std::uint64_t rows = 0;
    WorkloadParams p = params;
    p.post_run = &CountSnapshotRows;
    p.post_run_arg = &rows;
    WorkloadReport r_snap = RunServerFarmWorkload(snap, p);
    EXPECT_EQ(r_off.virtual_time, r_snap.virtual_time) << "slo_window " << window;
    EXPECT_EQ(r_off.ipc.messages_sent, r_snap.ipc.messages_sent);
    EXPECT_EQ(r_off.transfer.total_blocks, r_snap.transfer.total_blocks);
    EXPECT_GE(rows, r_snap.virtual_time / 50000 - 1);  // The sink really ran.
  }
}

// A user thread running rpc spans of known latency, ending at known ticks.
struct SpanSource {
  Kernel* kernel = nullptr;
  Ticks window = 0;
  std::vector<std::pair<Ticks, Ticks>> ended;  // (end tick, latency).
};

void RunSpans(void* arg) {
  auto* d = static_cast<SpanSource*>(arg);
  for (std::uint64_t i = 0; i < 300; ++i) {
    // Mostly short spans, every 17th one 3 windows long (it violates the
    // 25000-tick target and crosses boundaries mid-span); the gaps between
    // spans vary so ends fall anywhere in a window.
    const Ticks latency = i % 17 == 0 ? 30000 : 100 + (i * 37) % 3000;
    const Ticks begin = d->kernel->VirtualTime();
    d->kernel->SpanBegin(SpanKind::kRpc);
    UserWork(latency);
    if (i % 5 == 0) {
      // Kernel-path cycles with no safe point in between: the span ends
      // just past the next boundary, which only the span hook can
      // snapshot before the tracker's ring moves past it.
      const Ticks now = d->kernel->VirtualTime();
      d->kernel->clock().Advance((now / d->window + 1) * d->window + 7 - now);
    }
    d->kernel->SpanEnd(SpanKind::kRpc);
    const Ticks end = d->kernel->VirtualTime();
    d->ended.emplace_back(end, end - begin);
    UserWork((i * 53) % 5000);
  }
}

// With the snapshot interval equal to the SLO window, every row's SLO
// section is exactly the completed tumbling window [t - window, t): the
// same count, quantiles and violations as an oracle histogram over the
// spans that ended in it.
TEST(SloTest, SnapshotRowsCarryExactlyEachCompletedWindow) {
  constexpr Ticks kWindow = 10000;
  KernelConfig config;
  config.slo_window = kWindow;
  config.snapshot_interval = kWindow;
  Kernel kernel(config);
  SpanSource spans;
  spans.kernel = &kernel;
  spans.window = kWindow;
  kernel.CreateUserThread(kernel.CreateTask("spans"), &RunSpans, &spans);
  kernel.Run();
  ASSERT_NE(kernel.snapshots(), nullptr);
  kernel.snapshots()->Tick(kernel);

  const std::vector<Snapshot>& rows = kernel.snapshots()->taken();
  ASSERT_EQ(rows.size(), kernel.VirtualTime() / kWindow);
  std::vector<LatencyHistogram> oracle(rows.size());
  std::vector<std::uint64_t> violations(rows.size());
  for (const auto& [end, latency] : spans.ended) {
    if (end / kWindow < rows.size()) {
      oracle[end / kWindow].Record(latency);
      violations[end / kWindow] += latency > kernel.slo()->target(0) ? 1 : 0;
    }
  }
  std::uint64_t total = 0;
  std::uint64_t total_violations = 0;
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const Snapshot& s = rows[j];
    EXPECT_EQ(s.seq, j);
    EXPECT_EQ(s.t, (j + 1) * kWindow);
    ASSERT_NE(s.sections & kSnapSlo, 0u);
    EXPECT_EQ(s.slo[0].count, oracle[j].count()) << "window " << j;
    EXPECT_EQ(s.slo[0].p50, oracle[j].P50()) << "window " << j;
    EXPECT_EQ(s.slo[0].p99, oracle[j].P99()) << "window " << j;
    EXPECT_EQ(s.slo[0].p999, oracle[j].P999()) << "window " << j;
    EXPECT_EQ(s.slo[0].violations, violations[j]) << "window " << j;
    total += s.slo[0].count;
    total_violations += s.slo[0].violations;
  }
  EXPECT_GT(total, 250u);
  EXPECT_GT(total_violations, 10u);
}

// Tail sampling retains exactly the deterministic heads plus the K slowest
// chains per kind, with every dropped span and record accounted for.
TEST(SloTest, TailSamplingRetainsHeadsAndSlowestWithExactAccounting) {
  TraceBuffer buf;
  buf.Configure(64);
  TailSamplingConfig cfg;
  cfg.enabled = true;
  cfg.tail_k = 2;
  cfg.head_every = 1000;  // Only span id 1 is a head sample here.
  cfg.chain_cap = 16;
  buf.ConfigureTailSampling(cfg);
  ASSERT_TRUE(buf.tail_sampling());

  auto span = [&buf](std::uint32_t id, Ticks begin, Ticks latency) {
    buf.Record(begin, 1, TraceEvent::kSpanBegin, /*aux=*/1, 0, id);
    buf.Record(begin + latency, 1, TraceEvent::kSpanEnd, /*aux=*/1, 0, id);
  };
  buf.Record(5, 1, TraceEvent::kStackPoolSize, 3, 1);  // Span-less: ring.
  span(1, 10, 1);    // Head sample (fast, kept anyway).
  span(2, 20, 10);   // Fills the tail set...
  span(3, 40, 30);   // ...with span 3 as the slowest.
  span(4, 80, 20);   // Evicts span 2 (10 < 20).
  span(5, 120, 5);   // Slower than nothing: dropped outright.
  buf.Record(200, 2, TraceEvent::kSpanBegin, 1, 0, 6);  // Never ends: open.

  TailSampleStats stats = buf.TailStats();
  EXPECT_EQ(stats.spans_completed, 5u);
  EXPECT_EQ(stats.retained_head, 1u);
  EXPECT_EQ(stats.retained_tail, 2u);  // Spans 3 and 4.
  EXPECT_EQ(stats.spans_dropped, 2u);  // Spans 2 and 5.
  EXPECT_EQ(stats.records_dropped, 4u);
  EXPECT_EQ(stats.open_chains, 1u);
  EXPECT_EQ(stats.stray_records, 0u);

  // The sampled stream is the ring record, the retained chains, and the
  // open chain, in (when, sequence) order.
  std::vector<TraceRecord> records = buf.SampledRecords();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].when, records[i].when);
  }
  std::uint64_t span2_records = 0;
  for (const TraceRecord& r : records) {
    EXPECT_NE(r.span, 5u);
    if (r.span == 2u) {
      ++span2_records;
    }
  }
  EXPECT_EQ(span2_records, 0u);
}

// A chain that exceeds chain_cap is truncated — dropped with accounting —
// instead of buffering without bound.
TEST(SloTest, RunawayChainsAreTruncated) {
  TraceBuffer buf;
  buf.Configure(64);
  TailSamplingConfig cfg;
  cfg.enabled = true;
  cfg.tail_k = 4;
  cfg.head_every = 1000;
  cfg.chain_cap = 2;
  buf.ConfigureTailSampling(cfg);

  buf.Record(10, 1, TraceEvent::kSpanBegin, 1, 0, 2);
  buf.Record(11, 1, TraceEvent::kBlock, 0, 0, 2);      // Fills the cap.
  buf.Record(12, 1, TraceEvent::kBlock, 0, 0, 2);      // Poisons the chain.
  buf.Record(13, 1, TraceEvent::kSpanEnd, 1, 0, 2);

  TailSampleStats stats = buf.TailStats();
  EXPECT_EQ(stats.spans_completed, 1u);
  EXPECT_EQ(stats.spans_truncated, 1u);
  EXPECT_EQ(stats.retained_tail, 0u);
  // Two records dropped at the cap (the poisoning block + the end), plus
  // the two buffered records discarded when the chain closed truncated.
  EXPECT_EQ(stats.records_dropped, 4u);
  EXPECT_TRUE(buf.SampledRecords().empty() ||
              buf.SampledRecords().front().span == 0);
}

// The analyzer flags complete-looking spans that began before a wrapped
// ring's overwrite horizon instead of decomposing garbage.
TEST(SloTest, AnalyzerFlagsSuspectSpansAfterOverflow) {
  const char* trace =
      "[\n"
      "{\"name\":\"trace-overflow\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"overwritten\":10,\"recorded\":50,\"retained\":40,"
      "\"oldest_retained_tick\":100}},\n"
      "{\"name\":\"span-begin\",\"ph\":\"i\",\"pid\":1,\"span\":1,\"tick\":50,"
      "\"args\":{\"kind\":\"rpc\"}},\n"
      "{\"name\":\"span-end\",\"ph\":\"i\",\"pid\":1,\"span\":1,\"tick\":150},\n"
      "{\"name\":\"span-begin\",\"ph\":\"i\",\"pid\":1,\"span\":2,\"tick\":120,"
      "\"args\":{\"kind\":\"rpc\"}},\n"
      "{\"name\":\"span-end\",\"ph\":\"i\",\"pid\":1,\"span\":2,\"tick\":180}\n"
      "]\n";
  TraceAnalysis analysis = AnalyzeChromeTrace(trace);
  ASSERT_TRUE(analysis.parse_ok) << analysis.error;
  EXPECT_EQ(analysis.overwritten, 10u);
  EXPECT_EQ(analysis.suspect_incomplete, 1u);  // Span 1 began before tick 100.
  ASSERT_EQ(analysis.spans.size(), 1u);
  EXPECT_EQ(analysis.spans[0].id, 2u);
}

// The whole in-band pipeline on a lossy two-node cluster, twice: both sinks
// of the snapshot stream (each node's local rows and the collector's rows),
// the merged SLO block and the node metrics must be byte-identical run to
// run; the collector's rows must be the emitters' own snapshots; and the
// table renderer must see them.
TEST(SloTest, ClusterSnapshotSinksAreByteDeterministicAndAgree) {
  struct RunResult {
    std::string rows;
    std::string local;
    std::string fixed;  // The emitters' snapshots rendered without extras.
    std::string merged;
    std::string metrics0;
    std::uint64_t rpcs = 0;
  };
  auto run_once = []() {
    KernelConfig config;
    config.seed = 42;
    config.slo_window = 50000;
    config.snapshot_interval = 20000;
    config.trace_capacity = 4096;
    LinkConfig link;
    link.drop_per_mille = 10;
    Cluster cluster(config, 2, link);
    TelemetryPlane plane(cluster);
    ClusterRpcParams params;
    params.scale = 1;
    params.pre_drain = &TelemetryPlane::PreDrainHook;
    params.pre_drain_arg = &plane;
    ClusterReport r = RunClusterRpcWorkload(cluster, params);

    RunResult out;
    out.rows = plane.Rows();
    for (int i = 0; i < 2; ++i) {
      out.local += cluster.node(i).snapshots()->Jsonl();
      for (const Snapshot& s : cluster.node(i).snapshots()->taken()) {
        AppendSnapshotRow(&out.fixed, s);
      }
    }
    out.merged = SloTracker::MergedJsonBlock(
        {cluster.node(0).slo(), cluster.node(1).slo()});
    out.metrics0 = cluster.node(0).metrics().DumpJsonString();
    out.rpcs = r.rpcs_ok;
    return out;
  };

  RunResult first = run_once();
  RunResult second = run_once();
  EXPECT_GT(first.rpcs, 0u);
  EXPECT_EQ(first.rpcs, second.rpcs);
  EXPECT_EQ(first.rows, second.rows);
  EXPECT_EQ(first.local, second.local);
  EXPECT_EQ(first.merged, second.merged);
  EXPECT_EQ(first.metrics0, second.metrics0);

  ASSERT_FALSE(first.rows.empty());
  EXPECT_NE(first.rows.find("{\"node\":1,"), std::string::npos);  // Remote agent
  EXPECT_NE(first.rows.find("\"slo\""), std::string::npos);       // ...with slo.
  EXPECT_NE(first.metrics0.find("\"slo\""), std::string::npos);

  // Every collector row is one of the emitters' snapshots, byte for byte,
  // and the local row for the same (node, seq) is that same row: with the
  // in-band sink attached the local rows carry no registry sections.
  std::size_t rows = 0;
  for (std::size_t at = 0; at < first.rows.size(); ++rows) {
    const std::size_t nl = first.rows.find('\n', at);
    ASSERT_NE(nl, std::string::npos);
    const std::string row = first.rows.substr(at, nl + 1 - at);
    at = nl + 1;
    EXPECT_NE(first.fixed.find(row), std::string::npos) << row;
    EXPECT_NE(first.local.find(row), std::string::npos) << row;
  }
  EXPECT_GT(rows, 4u);
  EXPECT_EQ(first.local.find("\"counters\""), std::string::npos);
  EXPECT_EQ(first.local, first.fixed);

  std::string table = FormatSnapshotTable(first.rows);
  EXPECT_NE(table.find("rpc_p99"), std::string::npos);
  EXPECT_EQ(table.find("(no snapshot rows)"), std::string::npos);
}

}  // namespace
}  // namespace mkc
