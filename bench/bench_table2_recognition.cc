// Reproduces Table 2: "Frequency of Continuation Recognition and Stack
// Handoff" — same three workloads, reporting what fraction of all blocking
// operations used a stack handoff and how many resumptions were recognized.
//
// Beyond the paper's aggregate rows, the bench reports the generalized
// recognition table's view: a per-continuation breakdown (blocks, resumes,
// recognized, rate) for every continuation that saw traffic, plus a 2-node
// lossy netipc run exercising the wakeup-absorption handlers
// (netipc_recv_continue / netipc_ack_continue). The per-site rates feed the
// `perf_gate` ctest (tools/check_perf_regression.py --baseline-dir
// bench/baselines BENCH.json against bench/baselines/table2_recognition.json).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/cluster.h"
#include "src/obs/introspect.h"
#include "src/workload/workload.h"

namespace mkc {
namespace {

// One registry row worth reporting: saw at least one block or resumption.
struct ContRow {
  std::string name;
  std::uint64_t blocks = 0;
  std::uint64_t resumes = 0;
  std::uint64_t recognitions = 0;

  double RatePct() const {
    const std::uint64_t total = resumes + recognitions;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(recognitions) /
                            static_cast<double>(total);
  }
};

// Merges one kernel's registry counts into `rows` (summing by name — the
// cluster section aggregates every node into one table).
void CollectRows(const Kernel& kernel, std::vector<ContRow>* rows) {
  for (const ContinuationInfo& info : kernel.continuations().entries()) {
    if (info.blocks == 0 && info.resumes == 0 && info.recognitions == 0) {
      continue;
    }
    ContRow* row = nullptr;
    for (auto& r : *rows) {
      if (r.name == info.name) {
        row = &r;
        break;
      }
    }
    if (row == nullptr) {
      rows->emplace_back();
      row = &rows->back();
      row->name = info.name;
    }
    row->blocks += info.blocks;
    row->resumes += info.resumes;
    row->recognitions += info.recognitions;
  }
}

void CapturePerContinuation(Kernel& kernel, void* arg) {
  CollectRows(kernel, static_cast<std::vector<ContRow>*>(arg));
}

void PrintRows(const char* title, const std::vector<ContRow>& rows) {
  std::printf("\n%s — per-continuation recognition:\n", title);
  std::printf("  %-28s %10s %10s %12s %8s\n", "continuation", "blocks", "resumes",
              "recognized", "rate");
  for (const auto& r : rows) {
    std::printf("  %-28s %10llu %10llu %12llu %7.1f%%\n", r.name.c_str(),
                static_cast<unsigned long long>(r.blocks),
                static_cast<unsigned long long>(r.resumes),
                static_cast<unsigned long long>(r.recognitions), r.RatePct());
  }
}

std::string RowsJson(const std::vector<ContRow>& rows) {
  std::string out = "{";
  bool first = true;
  for (const auto& r : rows) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"blocks\":%llu,\"resumes\":%llu,"
                  "\"recognized\":%llu,\"rate_pct\":%.2f}",
                  first ? "" : ",", r.name.c_str(),
                  static_cast<unsigned long long>(r.blocks),
                  static_cast<unsigned long long>(r.resumes),
                  static_cast<unsigned long long>(r.recognitions), r.RatePct());
    out += buf;
    first = false;
  }
  out += '}';
  return out;
}

int Main(int argc, char** argv) {
  int scale = ScaleFromArgs(argc, argv, 10);
  KernelConfig config;  // MK40 defaults.
  // The registry's per-continuation accounting rides on the profiler switch;
  // sampling is observability-only, so the workload numbers are unchanged.
  config.profile_interval = 5000;
  WorkloadParams params;
  params.scale = scale;

  WorkloadReport reports[3];
  std::vector<ContRow> rows[3];
  for (int i = 0; i < 3; ++i) {
    params.post_run = &CapturePerContinuation;
    params.post_run_arg = &rows[i];
    reports[i] = kTableWorkloads[i].fn(config, params);
  }

  std::printf("Table 2: Frequency of Continuation Recognition and Stack Handoff\n");
  std::printf("Kernel model: MK40 (continuations); workload scale %d\n", scale);
  std::printf("Per cell: count, measured %% of total blocks, [paper %%]\n\n");

  std::printf("%-16s", "");
  for (const auto& w : kTableWorkloads) {
    std::printf(" | %26s", w.name);
  }
  std::printf("\n");

  std::printf("%-16s", "total blocks");
  for (const auto& r : reports) {
    std::printf(" | %10llu %6.1f [%5.1f]",
                static_cast<unsigned long long>(r.transfer.total_blocks), 100.0, 100.0);
  }
  std::printf("\n");

  const double paper_handoff[3] = {96.8, 99.7, 100.0};
  std::printf("%-16s", "stack handoff");
  for (int i = 0; i < 3; ++i) {
    const auto& st = reports[i].transfer;
    std::printf(" | %10llu %6.1f [%5.1f]",
                static_cast<unsigned long long>(st.stack_handoffs),
                Pct(st.stack_handoffs, st.total_blocks), paper_handoff[i]);
  }
  std::printf("\n");

  const double paper_recognition[3] = {60.2, 72.3, 85.9};
  std::printf("%-16s", "recognition");
  for (int i = 0; i < 3; ++i) {
    const auto& st = reports[i].transfer;
    std::printf(" | %10llu %6.1f [%5.1f]",
                static_cast<unsigned long long>(st.recognitions),
                Pct(st.recognitions, st.total_blocks), paper_recognition[i]);
  }
  std::printf("\n");

  for (int i = 0; i < 3; ++i) {
    PrintRows(kTableWorkloads[i].name, rows[i]);
  }

  // The wakeup side of the generalized table: a lossy 2-node cluster where
  // the netipc protocol threads' resumptions are absorbed in the waker's
  // context (netipc_recv_continue forwards in the sender's frame,
  // netipc_ack_continue services packets/timeouts/kicks in event context).
  const int kNetNodes = 2;
  const std::uint32_t kNetDropPerMille = 50;
  const std::uint64_t kNetSeed = 7;
  config.seed = kNetSeed;
  LinkConfig link;
  link.drop_per_mille = kNetDropPerMille;
  Cluster cluster(config, kNetNodes, link);
  ClusterRpcParams cp;
  cp.scale = scale;
  ClusterReport cr = RunClusterRpcWorkload(cluster, cp);
  std::vector<ContRow> net_rows;
  std::uint64_t wakeup_recognitions = 0;
  for (int i = 0; i < kNetNodes; ++i) {
    CollectRows(cluster.node(i), &net_rows);
    wakeup_recognitions += cluster.node(i).transfer_stats().wakeup_recognitions;
  }
  PrintRows("NetIPC cluster (2 nodes, lossy)", net_rows);
  std::printf("  rpcs=%llu retransmits=%llu wakeup_recognitions=%llu vtime=%llu\n",
              static_cast<unsigned long long>(cr.rpcs_ok),
              static_cast<unsigned long long>(cr.net.retransmits),
              static_cast<unsigned long long>(wakeup_recognitions),
              static_cast<unsigned long long>(cr.virtual_time));

  BenchJsonBuilder json("table2_recognition");
  json.Config("scale", scale).Config("model", "mk40");
  for (int i = 0; i < 3; ++i) {
    const auto& st = reports[i].transfer;
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "{\"total_blocks\":%llu,\"stack_handoffs\":%llu,"
                  "\"recognitions\":%llu,\"handoff_pct\":%.2f,\"recognition_pct\":%.2f,"
                  "\"per_continuation\":",
                  static_cast<unsigned long long>(st.total_blocks),
                  static_cast<unsigned long long>(st.stack_handoffs),
                  static_cast<unsigned long long>(st.recognitions),
                  Pct(st.stack_handoffs, st.total_blocks),
                  Pct(st.recognitions, st.total_blocks));
    std::string entry = buf;
    entry += RowsJson(rows[i]);
    entry += '}';
    json.MetricJson(kTableWorkloads[i].name, entry);
  }
  {
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "{\"nodes\":%d,\"drop_per_mille\":%u,\"seed\":%llu,"
                  "\"rpcs_ok\":%llu,\"wakeup_recognitions\":%llu,"
                  "\"per_continuation\":",
                  kNetNodes, kNetDropPerMille,
                  static_cast<unsigned long long>(kNetSeed),
                  static_cast<unsigned long long>(cr.rpcs_ok),
                  static_cast<unsigned long long>(wakeup_recognitions));
    std::string entry = buf;
    entry += RowsJson(net_rows);
    entry += '}';
    json.MetricJson("netipc_cluster", entry);
  }
  json.Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
