// Cross-node RPC throughput under packet loss: the canonical cluster RPC
// workload (clients on node 0, echo servers on nodes 1..N-1) swept over link
// drop rates. Every point is bit-deterministic for a fixed (scale, seed):
// same sequence of drops, same retransmit schedule, same virtual time.
//
// Each drop point runs the selective-repeat engine (SACK + piggybacked acks
// + frame coalescing + lazy-pull OOL). The go-back-N engine it replaced is
// gone; its numbers survive as frozen history in baselines/netipc.json,
// which the perf gate compares against. The SLO tracker rides along and
// reports the whole-run rpc p99 per point. A second small sweep runs the
// OOL-heavy shape (every other request ships a 4 KiB region the server
// touches) to exercise the lazy-pull path under loss.
//
// With MACHCONT_BENCH_JSON set, writes one JSON object with a point per
// drop rate (the CI netipc perf gate parses it).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/net/cluster.h"
#include "src/obs/slo.h"

namespace mkc {
namespace {

constexpr int kNodes = 4;
constexpr std::uint64_t kSeed = 7;

struct PointResult {
  std::uint32_t drop_per_mille = 0;
  std::uint64_t rpcs = 0;
  Ticks virtual_time = 0;
  double rpc_per_mtick = 0.0;  // RPC round trips per million virtual ticks.
  Ticks rpc_p99 = 0;           // Whole-run rpc round-trip p99 (node 0).
  NetStats net;
};

PointResult RunPoint(std::uint32_t drop_per_mille, int scale,
                     std::uint32_t ool_bytes) {
  PointResult p;
  p.drop_per_mille = drop_per_mille;

  KernelConfig config;
  config.seed = kSeed;
  config.slo_window = 200000;  // Arms the tracker; the p99 read is whole-run.
  LinkConfig link;
  link.drop_per_mille = drop_per_mille;
  Cluster cluster(config, kNodes, link);

  ClusterRpcParams params;
  params.scale = scale;
  if (ool_bytes > 0) {
    params.ool_bytes = ool_bytes;
    params.ool_every = 2;  // Every other request carries (and touches) OOL.
  }
  ClusterReport r = RunClusterRpcWorkload(cluster, params);

  p.rpcs = r.rpcs_ok;
  p.virtual_time = r.virtual_time;
  p.rpc_per_mtick = r.virtual_time > 0
                        ? 1e6 * static_cast<double>(r.rpcs_ok) /
                              static_cast<double>(r.virtual_time)
                        : 0.0;
  if (cluster.node(0).slo() != nullptr) {
    p.rpc_p99 = cluster.node(0).slo()->CumulativeKind(0).p99;
  }
  p.net = r.net;
  if (r.rpcs_failed > 0) {
    std::fprintf(stderr, "bench_netipc: %llu RPCs dead-named at drop=%u\n",
                 static_cast<unsigned long long>(r.rpcs_failed), drop_per_mille);
  }
  return p;
}

int Main(int argc, char** argv) {
  int scale = ScaleFromArgs(argc, argv, 10);
  constexpr std::uint32_t kDropPoints[] = {0, 5, 10, 20};
  constexpr std::size_t kNumPoints = sizeof(kDropPoints) / sizeof(kDropPoints[0]);

  std::printf(
      "netipc: cross-node RPC throughput vs link loss "
      "(%d nodes, scale %d, seed %llu)\n\n",
      kNodes, scale, static_cast<unsigned long long>(kSeed));
  std::printf("%9s %8s %12s %8s %8s %8s %6s %6s %8s %9s\n", "drop/1000",
              "RPCs", "v2 RPC/Mt", "rpc-p99", "retx", "fast", "apig", "coal",
              "giveups", "bytes_tx");

  std::string point_json = "[";
  double base = 0.0;
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    PointResult p = RunPoint(kDropPoints[i], scale, 0);
    if (base == 0.0) {
      base = p.rpc_per_mtick;
    }
    std::printf("%9u %8llu %12.2f %8llu %8llu %8llu %6llu %6llu %8llu %9llu\n",
                p.drop_per_mille, static_cast<unsigned long long>(p.rpcs),
                p.rpc_per_mtick,
                static_cast<unsigned long long>(p.rpc_p99),
                static_cast<unsigned long long>(p.net.retransmits),
                static_cast<unsigned long long>(p.net.fast_retransmits),
                static_cast<unsigned long long>(p.net.acks_piggybacked),
                static_cast<unsigned long long>(p.net.frames_coalesced),
                static_cast<unsigned long long>(p.net.give_ups),
                static_cast<unsigned long long>(p.net.bytes_tx));

    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"drop_per_mille\":%u,\"rpcs\":%llu,\"virtual_time\":%llu,"
        "\"rpc_per_mtick\":%.4f,\"rpc_p99\":%llu,\"drops\":%llu,"
        "\"retransmits\":%llu,\"fast_retransmits\":%llu,"
        "\"acks_piggybacked\":%llu,\"frames_coalesced\":%llu,"
        "\"give_ups\":%llu,\"packets_tx\":%llu,\"bytes_tx\":%llu,"
        "\"bytes_goodput\":%llu}",
        i == 0 ? "" : ",", p.drop_per_mille,
        static_cast<unsigned long long>(p.rpcs),
        static_cast<unsigned long long>(p.virtual_time), p.rpc_per_mtick,
        static_cast<unsigned long long>(p.rpc_p99),
        static_cast<unsigned long long>(p.net.drops),
        static_cast<unsigned long long>(p.net.retransmits),
        static_cast<unsigned long long>(p.net.fast_retransmits),
        static_cast<unsigned long long>(p.net.acks_piggybacked),
        static_cast<unsigned long long>(p.net.frames_coalesced),
        static_cast<unsigned long long>(p.net.give_ups),
        static_cast<unsigned long long>(p.net.packets_tx),
        static_cast<unsigned long long>(p.net.bytes_tx),
        static_cast<unsigned long long>(p.net.bytes_goodput));
    point_json += buf;
  }
  point_json += "]";

  // The OOL-heavy shape: every other request carries a 4 KiB region the
  // server walks, so half the traffic exercises the lazy-pull machinery.
  constexpr std::uint32_t kOolDropPoints[] = {0, 20};
  std::printf("\nool-heavy (4 KiB every other request, server touches):\n");
  std::printf("%9s %8s %12s %8s %9s %10s %8s\n", "drop/1000", "RPCs",
              "RPC/Mtick", "rpc-p99", "pulls", "pulled-B", "giveups");
  std::string ool_json = "[";
  for (std::size_t i = 0;
       i < sizeof(kOolDropPoints) / sizeof(kOolDropPoints[0]); ++i) {
    PointResult p = RunPoint(kOolDropPoints[i], scale, 4096);
    std::printf("%9u %8llu %12.2f %8llu %9llu %10llu %8llu\n",
                p.drop_per_mille, static_cast<unsigned long long>(p.rpcs),
                p.rpc_per_mtick, static_cast<unsigned long long>(p.rpc_p99),
                static_cast<unsigned long long>(p.net.ool_pulls),
                static_cast<unsigned long long>(p.net.ool_bytes_pulled),
                static_cast<unsigned long long>(p.net.give_ups));
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"drop_per_mille\":%u,\"rpcs\":%llu,\"rpc_per_mtick\":%.4f,"
        "\"rpc_p99\":%llu,\"ool_pulls\":%llu,\"ool_bytes_pulled\":%llu,"
        "\"give_ups\":%llu,\"bytes_tx\":%llu}",
        i == 0 ? "" : ",", p.drop_per_mille,
        static_cast<unsigned long long>(p.rpcs), p.rpc_per_mtick,
        static_cast<unsigned long long>(p.rpc_p99),
        static_cast<unsigned long long>(p.net.ool_pulls),
        static_cast<unsigned long long>(p.net.ool_bytes_pulled),
        static_cast<unsigned long long>(p.net.give_ups),
        static_cast<unsigned long long>(p.net.bytes_tx));
    ool_json += buf;
  }
  ool_json += "]";

  std::printf("\nloss-free throughput %.2f RPC/Mtick; all points give_ups=0 "
              "expected\n", base);

  BenchJsonBuilder("netipc")
      .Config("workload", "cluster_rpc")
      .Config("nodes", kNodes)
      .Config("scale", scale)
      .Config("seed", static_cast<unsigned long long>(kSeed))
      .MetricJson("points", point_json)
      .MetricJson("ool_points", ool_json)
      .Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
