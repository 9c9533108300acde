#include "src/obs/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "src/kern/kernel.h"
#include "src/net/netipc.h"
#include "src/obs/metrics.h"
#include "src/obs/watchdog.h"
#include "src/svc/service.h"

namespace mkc {

void AppendSnapshotRow(std::string* out, const Snapshot& s, const std::string& extra) {
  *out += "{\"node\":";
  AppendU64(out, s.node);
  *out += ",\"seq\":";
  AppendU64(out, s.seq);
  *out += ",\"t\":";
  AppendU64(out, s.t);
  *out += ",\"util_permille\":";
  AppendU64(out, s.util_permille);
  *out += ",\"runq\":";
  AppendU64(out, s.runq);
  *out += ",\"stalls\":";
  AppendU64(out, s.stalls);
  if ((s.sections & kSnapNet) != 0) {
    *out += ",\"net\":{\"tx\":";
    AppendU64(out, s.net_tx);
    *out += ",\"rx\":";
    AppendU64(out, s.net_rx);
    *out += ",\"retx\":";
    AppendU64(out, s.net_retx);
    *out += ",\"apig\":";
    AppendU64(out, s.net_apig);
    *out += ",\"coal\":";
    AppendU64(out, s.net_coal);
    *out += "}";
  }
  if ((s.sections & kSnapSvc) != 0) {
    *out += ",\"svc\":{\"backlog\":";
    AppendU64(out, s.svc_backlog);
    *out += ",\"admitted\":";
    AppendU64(out, s.svc_admitted);
    *out += ",\"shed\":";
    AppendU64(out, s.svc_shed);
    *out += "}";
  }
  if ((s.sections & kSnapSlo) != 0) {
    *out += ",\"slo\":{";
    for (int k = 0; k < SloTracker::kKinds; ++k) {
      *out += k == 0 ? "\"" : ",\"";
      *out += SloTracker::KindName(k);
      *out += "\":{\"count\":";
      AppendU64(out, s.slo[k].count);
      *out += ",\"p50\":";
      AppendU64(out, s.slo[k].p50);
      *out += ",\"p99\":";
      AppendU64(out, s.slo[k].p99);
      *out += ",\"p999\":";
      AppendU64(out, s.slo[k].p999);
      *out += ",\"viol\":";
      AppendU64(out, s.slo[k].violations);
      *out += "}";
    }
    *out += "}";
  }
  *out += extra;
  *out += "}\n";
}

void SnapshotEmitter::AttachSvc(const SvcNodeStats* stats, const std::uint64_t* backlog) {
  svc_ = stats;
  svc_backlog_ = backlog;
}

void SnapshotEmitter::Tick(Kernel& kernel) {
  const Ticks now = kernel.VirtualTime();
  if (now < next_) {
    return;
  }
  // Utilization is a rate over the whole step since the last sample, so
  // every boundary the step crossed reports it.
  std::uint64_t busy = 0;
  for (int i = 0; i < kernel.ncpu(); ++i) {
    const Processor& cpu = kernel.cpu(i);
    const std::uint64_t local = cpu.clock.Now();
    busy += local > cpu.idle_ticks ? local - cpu.idle_ticks : 0;
  }
  const Ticks t_delta = now - prev_t_;
  const std::uint64_t busy_delta = busy > prev_busy_ ? busy - prev_busy_ : 0;
  std::uint32_t util_permille = 0;
  if (t_delta > 0) {
    const std::uint64_t permille =
        busy_delta * 1000 / (t_delta * static_cast<std::uint64_t>(kernel.ncpu()));
    util_permille = static_cast<std::uint32_t>(std::min<std::uint64_t>(permille, 1000));
  }
  prev_t_ = now;
  prev_busy_ = busy;
  while (now >= next_) {
    const Snapshot s = Take(kernel, next_, util_permille);
    taken_.push_back(s);
    std::string registry;
    if (!in_band_) {
      AppendRegistrySections(kernel, &registry);
    }
    AppendSnapshotRow(&jsonl_, s, registry);
    next_ += interval_;
  }
}

Snapshot SnapshotEmitter::Take(Kernel& k, Ticks boundary, std::uint32_t util_permille) {
  Snapshot s;
  s.node = static_cast<std::uint32_t>(k.config().node_id);
  s.seq = static_cast<std::uint32_t>(taken_.size());
  s.t = boundary;
  s.util_permille = util_permille;
  for (int i = 0; i < k.ncpu(); ++i) {
    s.runq += static_cast<std::uint32_t>(k.cpu(i).run_queue.count());
  }
  if (k.watchdog() != nullptr) {
    s.stalls = k.watchdog()->stalls().size();
  }
  if (k.netipc() != nullptr) {
    const NetStats& ns = k.netipc()->stats();
    const std::uint64_t cur[5] = {ns.packets_tx, ns.packets_rx, ns.retransmits,
                                  ns.acks_piggybacked, ns.frames_coalesced};
    std::uint64_t* delta[5] = {&s.net_tx, &s.net_rx, &s.net_retx, &s.net_apig, &s.net_coal};
    for (int i = 0; i < 5; ++i) {
      *delta[i] = cur[i] - prev_net_[i];
      prev_net_[i] = cur[i];
    }
    s.sections |= kSnapNet;
  }
  if (svc_ != nullptr || svc_backlog_ != nullptr) {
    s.sections |= kSnapSvc;
    if (svc_backlog_ != nullptr) {
      s.svc_backlog = *svc_backlog_;
    }
    if (svc_ != nullptr) {
      s.svc_admitted = svc_->admitted_total - prev_admitted_;
      s.svc_shed = svc_->shed_total - prev_shed_;
      prev_admitted_ = svc_->admitted_total;
      prev_shed_ = svc_->shed_total;
    }
  }
  if (k.slo() != nullptr) {
    // The window ending at the boundary: the span hooks tick the emitter
    // before the tracker sees any span at or past it, so the ring has not
    // yet recycled the window's first sub-window.
    s.sections |= kSnapSlo;
    for (int kind = 0; kind < SloTracker::kKinds; ++kind) {
      s.slo[kind] = k.slo()->WindowedKind(kind, boundary - 1);
    }
  }
  return s;
}

void SnapshotEmitter::AppendRegistrySections(Kernel& kernel, std::string* out) {
  *out += ",\"counters\":{";
  bool first = true;
  std::size_t i = 0;
  kernel.metrics().ForEachCounter([&](const std::string& name, std::uint64_t v) {
    if (prev_counters_.size() <= i) {
      prev_counters_.resize(i + 1, 0);
    }
    // Counters can be zeroed under us (Kernel::ResetStats between runs);
    // treat a backwards step as a fresh baseline.
    const std::uint64_t delta = v >= prev_counters_[i] ? v - prev_counters_[i] : v;
    prev_counters_[i] = v;
    ++i;
    if (delta == 0) {
      return;  // Deltas only: quiet counters cost no bytes.
    }
    *out += first ? "\"" : ",\"";
    first = false;
    *out += name;
    *out += "\":";
    AppendU64(out, delta);
  });
  *out += "},\"hist\":{";
  first = true;
  kernel.metrics().ForEachHistogram([&](const std::string& name, const LatencyHistogram& h) {
    if (h.count() == 0) {
      return;
    }
    *out += first ? "\"" : ",\"";
    first = false;
    *out += name;
    *out += "\":{\"count\":";
    AppendU64(out, h.count());
    *out += ",\"p50\":";
    AppendU64(out, h.P50());
    *out += ",\"p99\":";
    AppendU64(out, h.P99());
    *out += ",\"p999\":";
    AppendU64(out, h.P999());
    *out += '}';
  });
  *out += "}";
}

// ---------------------------------------------------------------------------
// Table rendering (machcont_top, machcont_sim's telemetry summary).

namespace {

// Extracts the integer after `"key":` in `line`, searching from `from`.
bool ExtractU64(const std::string& line, const char* key, std::size_t from,
                std::uint64_t* out) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  std::size_t pos = line.find(needle, from);
  if (pos == std::string::npos) {
    return false;
  }
  pos += needle.size();
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') {
    return false;
  }
  std::uint64_t v = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  *out = v;
  return true;
}

struct TopRow {
  std::uint64_t seq = 0;
  std::uint64_t node = 0;
  std::uint64_t t = 0;
  std::uint64_t util_permille = 0;
  std::uint64_t runq = 0;
  std::uint64_t stalls = 0;
  std::uint64_t net[5] = {};  // tx rx retx apig coal
  std::uint64_t rpc[4] = {};  // count p99 p999 viol
  bool has_svc = false;
  std::uint64_t svc[3] = {};  // backlog admitted shed
};

}  // namespace

std::string FormatSnapshotTable(const std::string& rows_jsonl) {
  static const char* const kNet[5] = {"tx", "rx", "retx", "apig", "coal"};
  static const char* const kRpc[4] = {"count", "p99", "p999", "viol"};
  static const char* const kSvc[3] = {"backlog", "admitted", "shed"};
  std::vector<TopRow> rows;
  std::size_t start = 0;
  while (start < rows_jsonl.size()) {
    std::size_t nl = rows_jsonl.find('\n', start);
    if (nl == std::string::npos) {
      nl = rows_jsonl.size();
    }
    const std::string line = rows_jsonl.substr(start, nl - start);
    start = nl + 1;
    TopRow r;
    if (line.rfind("{\"node\":", 0) != 0 || !ExtractU64(line, "node", 0, &r.node) ||
        !ExtractU64(line, "seq", 0, &r.seq)) {
      continue;
    }
    ExtractU64(line, "t", 0, &r.t);
    ExtractU64(line, "util_permille", 0, &r.util_permille);
    ExtractU64(line, "runq", 0, &r.runq);
    ExtractU64(line, "stalls", 0, &r.stalls);
    // Sections are searched from their own key: the local sink's trailing
    // counter and histogram sections reuse names like "count".
    const std::size_t net = line.find("\"net\":{");
    for (int i = 0; net != std::string::npos && i < 5; ++i) {
      ExtractU64(line, kNet[i], net, &r.net[i]);
    }
    const std::size_t rpc = line.find("\"rpc\":{");
    for (int i = 0; rpc != std::string::npos && i < 4; ++i) {
      ExtractU64(line, kRpc[i], rpc, &r.rpc[i]);
    }
    const std::size_t svc = line.find("\"svc\":{");
    r.has_svc = svc != std::string::npos;
    for (int i = 0; r.has_svc && i < 3; ++i) {
      ExtractU64(line, kSvc[i], svc, &r.svc[i]);
    }
    rows.push_back(r);
  }
  std::stable_sort(rows.begin(), rows.end(), [](const TopRow& a, const TopRow& b) {
    return a.seq != b.seq ? a.seq < b.seq : a.node < b.node;
  });
  // Svc columns appear only when some row carries them, so a stream from a
  // run without a service fabric renders without them.
  const bool any_svc =
      std::any_of(rows.begin(), rows.end(), [](const TopRow& r) { return r.has_svc; });

  using ull = unsigned long long;
  std::string out;
  char buf[224];
  std::snprintf(buf, sizeof(buf), "%4s %5s %12s %6s %5s %7s %7s %6s %6s %6s %8s %9s %10s %5s %6s",
                "seq", "node", "t", "util%", "runq", "tx", "rx", "retx", "apig", "coal", "rpc_n",
                "rpc_p99", "rpc_p999", "viol", "stall");
  out += buf;
  if (any_svc) {
    std::snprintf(buf, sizeof(buf), " %8s %8s %7s", "backlog", "admit", "shed");
    out += buf;
  }
  out += "\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TopRow& r = rows[i];
    if (i > 0 && r.seq != rows[i - 1].seq) {
      out += "\n";
    }
    std::snprintf(buf, sizeof(buf),
                  "%4llu %5llu %12llu %6.1f %5llu %7llu %7llu %6llu %6llu %6llu %8llu %9llu "
                  "%10llu %5llu %6llu",
                  static_cast<ull>(r.seq), static_cast<ull>(r.node), static_cast<ull>(r.t),
                  static_cast<double>(r.util_permille) / 10.0, static_cast<ull>(r.runq),
                  static_cast<ull>(r.net[0]), static_cast<ull>(r.net[1]),
                  static_cast<ull>(r.net[2]), static_cast<ull>(r.net[3]),
                  static_cast<ull>(r.net[4]), static_cast<ull>(r.rpc[0]),
                  static_cast<ull>(r.rpc[1]), static_cast<ull>(r.rpc[2]),
                  static_cast<ull>(r.rpc[3]), static_cast<ull>(r.stalls));
    out += buf;
    if (any_svc) {
      std::snprintf(buf, sizeof(buf), " %8llu %8llu %7llu", static_cast<ull>(r.svc[0]),
                    static_cast<ull>(r.svc[1]), static_cast<ull>(r.svc[2]));
      out += buf;
    }
    out += "\n";
  }
  if (rows.empty()) {
    out += "(no snapshot rows)\n";
  }
  return out;
}

}  // namespace mkc
