// Workload `openloop`: a 4-node cluster (node 0 the frontend, nodes 1-3
// serving the default name/file/counter shards) under Poisson arrivals at a
// fixed 1600 arrivals/Mtick — about twice this topology's knee — with 1%
// link drop and shedding armed. Open-loop: arrivals land on the virtual-time
// frontier whether or not earlier requests completed, and latency runs from
// the arrival tick. MK40 runs repeat until the time budget is spent,
// cycling through kStreams arrival streams derived from the seed; every
// repetition of a stream must reproduce that stream's first run exactly.
// Model metrics combine the streams, so they move less from seed to seed
// than one stream's would (one stream's stack high-water alone flips
// between 8 and 9 stacks, and its heap high-water between 5 and 7 MiB). There is no MK32 twin: at this load MK32 collapses (goodput
// falls to 1-2% of arrivals, varying with the seed), so the two models do
// different work and their host times do not compare.
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "perfbench/runner/kstats.h"
#include "src/net/cluster.h"
#include "src/net/link.h"
#include "src/net/netipc.h"
#include "src/svc/service.h"
#include "src/svc/shard_map.h"
#include "src/workload/openloop.h"

namespace perfbench {
namespace {

constexpr int kNodes = 4;
constexpr std::uint64_t kRate = 1600;          // Arrivals per Mtick.
constexpr std::uint32_t kDropPerMille = 10;    // 1% link loss.
constexpr std::uint32_t kShedDepth = 8;
constexpr std::uint64_t kArrivals = 20000;
constexpr std::uint64_t kTinyArrivals = 200;
constexpr std::size_t kStreams = 4;
// Peak RSS is read after this many repetitions, a fixed amount of work: the
// heap high-water keeps creeping for a while as clusters are built and torn
// down, so a reading at the end of the run would depend on how many
// repetitions the host's speed allowed.
constexpr std::size_t kRssReps = 3 * kStreams;

// Seed of arrival stream `stream` (0..kStreams-1) for the run's --seed.
std::uint64_t StreamSeed(const Options& opt, std::size_t stream) {
  return opt.seed * kStreams + stream;
}

mkc::OpenLoopParams Params(const Options& opt, std::size_t stream) {
  mkc::OpenLoopParams op;
  op.rate = kRate;
  op.shed_depth = kShedDepth;
  op.seed = StreamSeed(opt, stream);
  op.total_arrivals = opt.size == Size::kTiny ? kTinyArrivals : kArrivals;
  return op;
}

struct Rep {
  double setup_s = 0.0;         // Cluster and engine construction.
  double engine_setup_s = 0.0;  // OpenLoopEngine construction alone.
  double run_s = 0.0;           // Cluster::Run + Drain.
  double net_run_s = 0.0;       // Cluster::Run alone.
  mkc::OpenLoopReport report;
  mkc::SvcNodeStats svc;
  mkc::NetStats net;
  std::vector<std::uint64_t> state;
  LayerCounters counters;
};

Rep RunOnce(const Options& opt, std::size_t stream) {
  Rep rep;
  mkc::KernelConfig config;
  config.seed = StreamSeed(opt, stream);
  config.enable_handoff = !opt.no_handoff;
  mkc::LinkConfig link;
  link.drop_per_mille = kDropPerMille;

  const double t0 = HostSeconds();
  mkc::Cluster cluster(config, kNodes, link);
  const double t1 = HostSeconds();
  mkc::OpenLoopEngine engine(cluster, Params(opt, stream));
  const double t2 = HostSeconds();
  cluster.Run();
  const double t3 = HostSeconds();
  cluster.Drain();
  const double t4 = HostSeconds();
  rep.setup_s = t2 - t0;
  rep.engine_setup_s = t2 - t1;
  rep.net_run_s = t3 - t2;
  rep.run_s = t4 - t2;

  rep.report = engine.Finish();
  rep.svc = engine.TotalSvcStats();
  rep.net = cluster.TotalNetStats();
  for (int i = 0; i < kNodes; ++i) {
    std::vector<std::uint64_t> snap = ModelSnapshot(cluster.node(i));
    rep.state.insert(rep.state.end(), snap.begin(), snap.end());
    rep.counters.Add(cluster.node(i));
  }
  const mkc::OpenLoopReport& r = rep.report;
  for (std::uint64_t v : {r.arrivals_total, r.completed_total, r.deadline_met_total, r.shed_total,
                          r.retries_total, r.failed_total, r.stream_hash, r.virtual_time}) {
    rep.state.push_back(v);
  }
  return rep;
}

// Each stream's first repetition in full, and the host times of all
// repetitions. Later repetitions are checked against their stream's first
// and then dropped, so the runner's own memory does not grow with the
// repetition count.
struct Pass {
  std::vector<Rep> first;  // Indexed by stream.
  double peak_rss_mb = 0.0;  // After kRssReps repetitions.
  std::vector<double> setup_s, engine_setup_s, run_s, net_run_s, request_ns, cal;
};

Pass RunPass(const Options& opt, double seconds, Result& res) {
  // The streams the engine must have consumed: replayed standalone.
  std::vector<mkc::ArrivalProcess> replay;
  for (std::size_t i = 0; i < kStreams; ++i) {
    replay.emplace_back(Params(opt, i));
    while (!replay.back().NextBatch().empty()) {
    }
  }

  Pass pass;
  const double deadline = HostSeconds() + seconds;
  for (std::size_t n = 0; n < kRssReps || HostSeconds() < deadline; ++n) {
    const std::size_t stream = n % kStreams;
    const double cal0 = CalibrationNs();
    Rep rep = RunOnce(opt, stream);
    const double cal = (cal0 + CalibrationNs()) / 2;
    const mkc::OpenLoopReport& r = rep.report;
    res.attempted += r.arrivals_total;
    res.failed += r.failed_total;
    res.Check(r.arrivals_total == replay[stream].produced() &&
                  r.stream_hash == replay[stream].stream_hash(),
              "openloop: arrival stream does not match the seed");
    res.Check(r.failed_total == 0, "openloop: requests failed in transport");
    res.Check(r.completed_total + r.shed_total + r.failed_total == r.arrivals_total &&
                  r.deadline_met_total <= r.completed_total && r.deadline_met_total > 0,
              "openloop: arrivals are not accounted for exactly once");
    pass.setup_s.push_back(rep.setup_s);
    pass.cal.push_back(cal);
    pass.engine_setup_s.push_back(rep.engine_setup_s);
    pass.run_s.push_back(rep.run_s);
    pass.net_run_s.push_back(rep.net_run_s);
    pass.request_ns.push_back(rep.run_s * 1e9 / static_cast<double>(r.arrivals_total));
    if (n + 1 == kRssReps) {
      pass.peak_rss_mb = PeakRssMiB();
    }
    if (n < kStreams) {
      pass.first.push_back(std::move(rep));
    } else {
      res.Check(rep.state == pass.first[stream].state,
                "openloop: model state differs between repetitions of one stream");
    }
  }
  return pass;
}

double HostRequestNs(const Pass& pass, Result& res, const char* label) {
  const double request_ns = Calibrated(pass.request_ns, pass.cal);
  const Rep& rep = pass.first[0];
  const mkc::OpenLoopReport& r = rep.report;
  char line[400];
  std::snprintf(line, sizeof(line),
                "%s openloop: %.1f calibrated ns/arrival | raw p10 %.1f p50 %.1f p99 %.1f | "
                "calibration p50 %.1f us | %zu runs",
                label, request_ns, Quantile(pass.request_ns, 0.1), Median(pass.request_ns),
                Quantile(pass.request_ns, 0.99), Median(pass.cal) / 1e3, pass.request_ns.size());
  res.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "%s openloop: arrivals=%llu completed=%llu goodput=%llu shed=%llu retries=%llu "
                "failed=%llu vtime=%llu blocks=%llu packets=%llu",
                label, static_cast<unsigned long long>(r.arrivals_total),
                static_cast<unsigned long long>(r.completed_total),
                static_cast<unsigned long long>(r.deadline_met_total),
                static_cast<unsigned long long>(r.shed_total),
                static_cast<unsigned long long>(r.retries_total),
                static_cast<unsigned long long>(r.failed_total),
                static_cast<unsigned long long>(r.virtual_time),
                static_cast<unsigned long long>(rep.counters.xfer.total_blocks),
                static_cast<unsigned long long>(rep.net.packets_tx));
  res.notes.push_back(line);
  return request_ns;
}

// Host ns per arrival of the standalone ArrivalProcess replay (median of
// `reps` replays of the run's stream).
double ArrivalNs(const Options& opt, int reps) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    mkc::ArrivalProcess ap(Params(opt, 0));
    const std::int64_t t0 = HostNanos();
    while (!ap.NextBatch().empty()) {
    }
    ns.push_back(static_cast<double>(HostNanos() - t0) / static_cast<double>(ap.produced()));
  }
  return Median(ns);
}

}  // namespace

Result RunOpenLoop(const Options& opt) {
  Result res;
  const double budget = opt.size == Size::kTiny ? 0.0 : opt.seconds;
  Pass plain = RunPass(opt, opt.trace ? budget / 2 : budget, res);
  const double request_ns = HostRequestNs(plain, res, "untraced");
  if (!opt.trace) {
    // Over the streams: summed virtual time, the mean stack high-water, and
    // goodput over all their arrivals.
    std::uint64_t vtime = 0, stack_bytes = 0, met = 0, arrivals = 0;
    for (const Rep& f : plain.first) {
      vtime += f.report.virtual_time;
      stack_bytes += f.counters.stack_bytes;
      met += f.report.deadline_met_total;
      arrivals += f.report.arrivals_total;
    }
    res.Add("setup_s", Median(plain.setup_s), "s");
    res.Add("peak_rss_mb", plain.peak_rss_mb, "MiB");
    res.Add("sim_mcycles", static_cast<double>(vtime) / 1e6, "Mcycles");
    res.Add("stack_kib_max", static_cast<double>(stack_bytes) / kStreams / 1024.0, "KiB");
    // Shed, late and failed requests all count as misses.
    res.Add("goodput_pct", Pct(met, arrivals), "%");
    res.Add("op_ns", request_ns, "ns");
    return res;
  }

  Pass traced = RunPass(opt, budget / 2, res);
  const double traced_request_ns = HostRequestNs(traced, res, "traced");
  bool same = true;
  for (std::size_t i = 0; i < kStreams; ++i) {
    same = same && traced.first[i].state == plain.first[i].state;
  }
  const Rep& t = traced.first[0];
  res.Check(same,
            "openloop: model state differs between the traced and untraced passes");
  res.Add("trace.overhead_pct", 100.0 * (traced_request_ns - request_ns) / request_ns, "%");
  res.Add("machine.switch_ns", MachineSwitchNs(opt.size == Size::kTiny ? 3 : 51), "ns");
  res.Add("kern.setup.span_s", Median(traced.setup_s), "s");
  res.Add("kern.run.span_s", Median(traced.run_s), "s");
  AddLayerMetrics(t.counters, res);

  const mkc::OpenLoopReport& r = t.report;
  const mkc::NetStats& n = t.net;
  res.Add("net.run.span_s", Median(traced.net_run_s), "s");
  res.Add("net.packets_per_request", Ratio(n.packets_tx, r.arrivals_total), "ratio");
  res.Add("net.goodput_byte_pct", Pct(n.bytes_goodput, n.bytes_tx), "%");
  res.Add("net.retransmit_pct", Pct(n.retransmits, n.packets_tx), "%");
  res.Add("net.acks_piggybacked", static_cast<double>(n.acks_piggybacked), "count");
  res.Add("net.frames_coalesced", static_cast<double>(n.frames_coalesced), "count");
  res.Add("net.give_ups", static_cast<double>(n.give_ups), "count");
  for (int k = 0; k < mkc::kServiceKindCount; ++k) {
    const std::string prefix = std::string("svc.") + mkc::ServiceKindName(k);
    res.Add(prefix + ".admit_pct", Pct(t.svc.kind[k].admitted, r.kind[k].arrivals), "%");
    res.Add(prefix + ".shed_queue", static_cast<double>(t.svc.kind[k].shed_queue), "count");
    res.Add(prefix + ".shed_deadline", static_cast<double>(t.svc.kind[k].shed_deadline),
            "count");
  }
  std::uint64_t client_shed = 0;
  for (const mkc::OpenLoopKindReport& k : r.kind) {
    client_shed += k.client_shed;
  }
  res.Add("workload.engine_setup.span_s", Median(traced.engine_setup_s), "s");
  res.Add("workload.arrivals.span_ns", ArrivalNs(opt, 5), "ns");
  res.Add("workload.client_shed", static_cast<double>(client_shed), "count");
  res.Add("workload.retries", static_cast<double>(r.retries_total), "count");
  return res;
}

}  // namespace perfbench
