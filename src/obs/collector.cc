#include "src/obs/collector.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/ipc/ipc_space.h"
#include "src/ipc/message.h"
#include "src/kern/kernel.h"
#include "src/net/cluster.h"
#include "src/net/netipc.h"
#include "src/obs/slo.h"
#include "src/obs/watchdog.h"
#include "src/svc/service.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {

static_assert(sizeof(TelemetryReport) <= kMaxInlineBytes,
              "telemetry reports must fit an inline message body");

struct TelemetryPlane::AgentState {
  TelemetryPlane* plane = nullptr;
  Kernel* kernel = nullptr;
  Ticks interval = 0;
  PortId timer_port = kInvalidPort;  // Receive-only; nothing ever sends here.
  PortId dest = kInvalidPort;        // Collector port (node 0) or its proxy.
  std::uint32_t node = 0;
  std::uint32_t seq = 0;
  // Baselines for the per-interval deltas.
  std::uint64_t prev_busy = 0;
  Ticks prev_t = 0;
  std::uint64_t prev_tx = 0;
  std::uint64_t prev_rx = 0;
  std::uint64_t prev_retx = 0;
  std::uint64_t prev_apig = 0;
  std::uint64_t prev_coal = 0;
  // Service-fabric hookup (AttachSvc); null on nodes without one.
  const SvcNodeStats* svc = nullptr;
  const std::uint64_t* svc_backlog = nullptr;
  std::uint64_t prev_admitted = 0;
  std::uint64_t prev_shed = 0;

  TelemetryReport Sample() {
    Kernel& k = *kernel;
    TelemetryReport r;
    r.node = node;
    r.seq = seq++;
    Ticks now = k.VirtualTime();
    r.t = now;
    std::uint64_t busy = 0;
    std::uint32_t runnable = 0;
    for (int i = 0; i < k.ncpu(); ++i) {
      const Processor& cpu = k.cpu(i);
      std::uint64_t local = cpu.clock.Now();
      busy += local > cpu.idle_ticks ? local - cpu.idle_ticks : 0;
      runnable += static_cast<std::uint32_t>(cpu.run_queue.count());
    }
    Ticks t_delta = now > prev_t ? now - prev_t : 0;
    std::uint64_t busy_delta = busy > prev_busy ? busy - prev_busy : 0;
    if (t_delta > 0) {
      std::uint64_t denom = t_delta * static_cast<std::uint64_t>(k.ncpu());
      std::uint64_t permille = busy_delta * 1000 / denom;
      r.util_permille = static_cast<std::uint32_t>(permille > 1000 ? 1000 : permille);
    }
    r.runnable = runnable;
    prev_busy = busy;
    prev_t = now;
    if (k.netipc() != nullptr) {
      const NetStats& s = k.netipc()->stats();
      r.net_tx = s.packets_tx - prev_tx;
      r.net_rx = s.packets_rx - prev_rx;
      r.net_retx = s.retransmits - prev_retx;
      prev_tx = s.packets_tx;
      prev_rx = s.packets_rx;
      prev_retx = s.retransmits;
      r.has_net2 = 1;
      r.net_apig = s.acks_piggybacked - prev_apig;
      r.net_coal = s.frames_coalesced - prev_coal;
      prev_apig = s.acks_piggybacked;
      prev_coal = s.frames_coalesced;
    }
    if (k.watchdog() != nullptr) {
      r.stalls = k.watchdog()->stalls().size();
    }
    if (svc != nullptr || svc_backlog != nullptr) {
      r.has_svc = 1;
      if (svc_backlog != nullptr) {
        r.svc_backlog = *svc_backlog;
      }
      if (svc != nullptr) {
        r.svc_admitted = svc->admitted_total - prev_admitted;
        r.svc_shed = svc->shed_total - prev_shed;
        prev_admitted = svc->admitted_total;
        prev_shed = svc->shed_total;
      }
    }
    if (k.slo() != nullptr) {
      r.has_slo = 1;
      for (int kind = 0; kind < SloTracker::kKinds; ++kind) {
        SloKindSnapshot s = k.slo()->WindowedKind(kind, now);
        r.kinds[kind].count = s.count;
        r.kinds[kind].p99 = s.p99;
        r.kinds[kind].p999 = s.p999;
        r.kinds[kind].violations = s.violations;
      }
    }
    return r;
  }
};

struct TelemetryPlane::CollectorState {
  TelemetryPlane* plane = nullptr;
  PortId port = kInvalidPort;
};

void TelemetryPlane::AgentThread(void* arg) {
  auto* a = static_cast<AgentState*>(arg);
  UserMessage msg;
  for (;;) {
    // The agent's steady state: a continuation-blocked timed receive on a
    // port nobody sends to. Under MK40 this holds no kernel stack — the
    // telemetry plane is idle-stack-free, per §3.3.
    KernReturn kr = UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes,
                                a->timer_port, a->interval);
    if (a->plane->stopped()) {
      // Workload over (pre-drain): park forever instead of re-arming the
      // timer, so Drain() has no telemetry events left to run.
      UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, a->timer_port);
      return;
    }
    if (kr != KernReturn::kRcvTimedOut) {
      continue;  // Stray message on the timer port; not ours to interpret.
    }
    TelemetryReport report = a->Sample();
    msg.header = MessageHeader{};
    msg.header.dest = a->dest;
    msg.header.msg_id = kTelemetryMsgId;
    // Agents ship the shortest prefix covering their populated sections:
    // the service-fabric extension rides only when a fabric is attached.
    const std::uint32_t send_bytes = static_cast<std::uint32_t>(
        report.has_svc != 0 ? sizeof(report) : kTelemetryNet2Bytes);
    std::memcpy(msg.body, &report, send_bytes);
    UserMachMsg(&msg, kMsgSendOpt, send_bytes, 0, kInvalidPort);
  }
}

void TelemetryPlane::CollectorThread(void* arg) {
  auto* c = static_cast<CollectorState*>(arg);
  UserMessage msg;
  for (;;) {
    if (UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, c->port) !=
        KernReturn::kSuccess) {
      return;
    }
    if (msg.header.msg_id != kTelemetryMsgId ||
        msg.header.size < kTelemetryNet2Bytes) {
      continue;
    }
    TelemetryReport report;
    const std::size_t n =
        std::min(static_cast<std::size_t>(msg.header.size), sizeof(report));
    std::memcpy(&report, msg.body, n);
    c->plane->AppendRow(report);
  }
}

TelemetryPlane::TelemetryPlane(Cluster& cluster, const TelemetryConfig& config)
    : config_(config) {
  if (config_.interval == 0) {
    config_.interval = 100000;
  }
  ThreadOptions daemon;
  daemon.daemon = true;

  Kernel& front = cluster.node(0);
  Task* front_task = front.CreateTask("telemetry");
  collector_ = std::make_unique<CollectorState>();
  collector_->plane = this;
  collector_->port = front.ipc().AllocatePort(front_task);
  front.CreateUserThread(front_task, &CollectorThread, collector_.get(), daemon);

  for (int i = 0; i < cluster.nnodes(); ++i) {
    Kernel& node = cluster.node(i);
    Task* task = i == 0 ? front_task : node.CreateTask("telemetry");
    auto agent = std::make_unique<AgentState>();
    agent->plane = this;
    agent->kernel = &node;
    agent->interval = config_.interval;
    agent->node = static_cast<std::uint32_t>(i);
    agent->timer_port = node.ipc().AllocatePort(task);
    // Remote agents reach the collector through an ordinary netipc proxy —
    // telemetry rides the transport it measures.
    agent->dest = i == 0 ? collector_->port
                         : cluster.netipc(i).BindProxy(0, collector_->port);
    node.CreateUserThread(task, &AgentThread, agent.get(), daemon);
    agents_.push_back(std::move(agent));
  }
}

TelemetryPlane::~TelemetryPlane() = default;

void TelemetryPlane::AttachSvc(int node, const SvcNodeStats* stats,
                               const std::uint64_t* backlog_gauge) {
  for (auto& agent : agents_) {
    if (agent->node == static_cast<std::uint32_t>(node)) {
      agent->svc = stats;
      agent->svc_backlog = backlog_gauge;
    }
  }
}

void TelemetryPlane::PreDrainHook(void* arg) {
  static_cast<TelemetryPlane*>(arg)->Stop();
}

namespace {

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

}  // namespace

void TelemetryPlane::AppendRow(const TelemetryReport& r) {
  std::string& out = rows_;
  out += "{\"telemetry\":1,\"seq\":";
  AppendU64(&out, r.seq);
  out += ",\"node\":";
  AppendU64(&out, r.node);
  out += ",\"t\":";
  AppendU64(&out, r.t);
  out += ",\"util_permille\":";
  AppendU64(&out, r.util_permille);
  out += ",\"runq\":";
  AppendU64(&out, r.runnable);
  out += ",\"net\":{\"tx\":";
  AppendU64(&out, r.net_tx);
  out += ",\"rx\":";
  AppendU64(&out, r.net_rx);
  out += ",\"retx\":";
  AppendU64(&out, r.net_retx);
  out += ",\"apig\":";
  AppendU64(&out, r.net_apig);
  out += ",\"coal\":";
  AppendU64(&out, r.net_coal);
  out += "},\"stalls\":";
  AppendU64(&out, r.stalls);
  if (r.has_slo != 0) {
    static const char* kKindNames[3] = {"rpc", "fault", "exception"};
    out += ",\"slo\":{";
    for (int k = 0; k < 3; ++k) {
      if (k != 0) {
        out += ",";
      }
      out += "\"";
      out += kKindNames[k];
      out += "\":{\"count\":";
      AppendU64(&out, r.kinds[k].count);
      out += ",\"p99\":";
      AppendU64(&out, r.kinds[k].p99);
      out += ",\"p999\":";
      AppendU64(&out, r.kinds[k].p999);
      out += ",\"viol\":";
      AppendU64(&out, r.kinds[k].violations);
      out += "}";
    }
    out += "}";
  }
  if (r.has_svc != 0) {
    out += ",\"svc\":{\"backlog\":";
    AppendU64(&out, r.svc_backlog);
    out += ",\"admitted\":";
    AppendU64(&out, r.svc_admitted);
    out += ",\"shed\":";
    AppendU64(&out, r.svc_shed);
    out += "}";
  }
  out += "}\n";
}

// ---------------------------------------------------------------------------
// Table rendering (machcont_top, machcont_sim summary).

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
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  std::uint64_t retx = 0;
  std::uint64_t apig = 0;
  std::uint64_t coal = 0;
  std::uint64_t stalls = 0;
  bool has_slo = false;
  std::uint64_t rpc_count = 0;
  std::uint64_t rpc_p99 = 0;
  std::uint64_t rpc_p999 = 0;
  std::uint64_t rpc_viol = 0;
  bool has_svc = false;
  std::uint64_t svc_backlog = 0;
  std::uint64_t svc_admitted = 0;
  std::uint64_t svc_shed = 0;
};

}  // namespace

std::string FormatTelemetryTable(const std::string& rows_jsonl) {
  std::vector<TopRow> rows;
  std::size_t start = 0;
  while (start < rows_jsonl.size()) {
    std::size_t nl = rows_jsonl.find('\n', start);
    if (nl == std::string::npos) {
      nl = rows_jsonl.size();
    }
    std::string line = rows_jsonl.substr(start, nl - start);
    start = nl + 1;
    std::uint64_t marker = 0;
    if (!ExtractU64(line, "telemetry", 0, &marker) || marker != 1) {
      continue;
    }
    TopRow r;
    ExtractU64(line, "seq", 0, &r.seq);
    ExtractU64(line, "node", 0, &r.node);
    ExtractU64(line, "t", 0, &r.t);
    ExtractU64(line, "util_permille", 0, &r.util_permille);
    ExtractU64(line, "runq", 0, &r.runq);
    ExtractU64(line, "tx", 0, &r.tx);
    ExtractU64(line, "rx", 0, &r.rx);
    ExtractU64(line, "retx", 0, &r.retx);
    ExtractU64(line, "apig", 0, &r.apig);
    ExtractU64(line, "coal", 0, &r.coal);
    ExtractU64(line, "stalls", 0, &r.stalls);
    std::size_t rpc = line.find("\"rpc\":{");
    if (rpc != std::string::npos) {
      r.has_slo = true;
      ExtractU64(line, "count", rpc, &r.rpc_count);
      ExtractU64(line, "p99", rpc, &r.rpc_p99);
      ExtractU64(line, "p999", rpc, &r.rpc_p999);
      ExtractU64(line, "viol", rpc, &r.rpc_viol);
    }
    std::size_t svc = line.find("\"svc\":{");
    if (svc != std::string::npos) {
      r.has_svc = true;
      ExtractU64(line, "backlog", svc, &r.svc_backlog);
      ExtractU64(line, "admitted", svc, &r.svc_admitted);
      ExtractU64(line, "shed", svc, &r.svc_shed);
    }
    rows.push_back(r);
  }
  std::stable_sort(rows.begin(), rows.end(), [](const TopRow& a, const TopRow& b) {
    if (a.seq != b.seq) {
      return a.seq < b.seq;
    }
    return a.node < b.node;
  });

  // Svc columns appear only when some row carries them, so a stream from a
  // run without a service fabric renders without them.
  bool any_svc = false;
  for (const TopRow& r : rows) {
    any_svc = any_svc || r.has_svc;
  }

  std::string out;
  char buf[224];
  // Svc columns are appended to a finished line: chop its newline, add the
  // three columns, restore the newline.
  auto append_line = [&out, any_svc](const char* line, std::uint64_t backlog,
                                     std::uint64_t admitted, std::uint64_t shed,
                                     bool header) {
    std::string s(line);
    if (any_svc && !s.empty() && s.back() == '\n') {
      s.pop_back();
      char svc_buf[80];
      if (header) {
        std::snprintf(svc_buf, sizeof(svc_buf), " %8s %8s %7s\n", "backlog",
                      "admit", "shed");
      } else {
        std::snprintf(svc_buf, sizeof(svc_buf), " %8llu %8llu %7llu\n",
                      static_cast<unsigned long long>(backlog),
                      static_cast<unsigned long long>(admitted),
                      static_cast<unsigned long long>(shed));
      }
      s += svc_buf;
    }
    out += s;
  };
  std::snprintf(buf, sizeof(buf),
                "%4s %5s %12s %6s %5s %7s %7s %6s %6s %6s %8s %9s %10s %5s %6s\n",
                "seq", "node", "t", "util%", "runq", "tx", "rx", "retx", "apig",
                "coal", "rpc_n", "rpc_p99", "rpc_p999", "viol", "stall");
  append_line(buf, 0, 0, 0, /*header=*/true);
  std::uint64_t last_seq = 0;
  bool first = true;
  for (const TopRow& r : rows) {
    if (!first && r.seq != last_seq) {
      out += "\n";
    }
    first = false;
    last_seq = r.seq;
    std::snprintf(buf, sizeof(buf),
                  "%4llu %5llu %12llu %6.1f %5llu %7llu %7llu %6llu %6llu %6llu %8llu %9llu %10llu %5llu %6llu\n",
                  static_cast<unsigned long long>(r.seq),
                  static_cast<unsigned long long>(r.node),
                  static_cast<unsigned long long>(r.t),
                  static_cast<double>(r.util_permille) / 10.0,
                  static_cast<unsigned long long>(r.runq),
                  static_cast<unsigned long long>(r.tx),
                  static_cast<unsigned long long>(r.rx),
                  static_cast<unsigned long long>(r.retx),
                  static_cast<unsigned long long>(r.apig),
                  static_cast<unsigned long long>(r.coal),
                  static_cast<unsigned long long>(r.rpc_count),
                  static_cast<unsigned long long>(r.rpc_p99),
                  static_cast<unsigned long long>(r.rpc_p999),
                  static_cast<unsigned long long>(r.rpc_viol),
                  static_cast<unsigned long long>(r.stalls));
    append_line(buf, r.svc_backlog, r.svc_admitted, r.svc_shed,
                /*header=*/false);
  }
  if (rows.empty()) {
    out += "(no telemetry rows)\n";
  }
  return out;
}

}  // namespace mkc
