#include "src/workload/openloop.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "src/base/panic.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/ipc/port.h"
#include "src/kern/kernel.h"
#include "src/net/cluster.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {
namespace {

// Integer floor(sqrt(n)) by Newton iteration — exact, no libm.
std::uint64_t Isqrt(std::uint64_t n) {
  if (n == 0) {
    return 0;
  }
  std::uint64_t x = n;
  std::uint64_t y = (x + 1) / 2;
  while (y < x) {
    x = y;
    y = (x + n / x) / 2;
  }
  return x;
}

// High 64 bits of frac * scale where frac is a 0.64 fixed-point fraction —
// i.e. floor(U * scale) for U = frac / 2^64.
std::uint64_t MulFrac(std::uint64_t frac, std::uint64_t scale) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(frac) * scale) >> 64);
}

void FnvMix(std::uint64_t* hash, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (v >> (i * 8)) & 0xff;
    *hash *= 1099511628211ULL;  // FNV-1a prime.
  }
}

}  // namespace

// --- ArrivalProcess --------------------------------------------------------

ArrivalProcess::ArrivalProcess(const OpenLoopParams& params)
    : params_(params), rng_(params.seed ^ 0x6f70656e6c6f6f70ULL /* "openloop" */) {
  const std::uint64_t rate = params_.rate > 0 ? params_.rate : 1;
  mean_gap_ = 1000000 / rate;  // Arrivals/Mtick -> mean gap in ticks.
  if (mean_gap_ == 0) {
    mean_gap_ = 1;
  }
  for (int k = 0; k < kServiceKindCount; ++k) {
    kind_weights_[k] = params_.services.shards[k];
    weight_total_ += kind_weights_[k];
  }
}

// von Neumann's 1951 exponential sampler: draw U1 and count the length K of
// the descending run U1 >= U2 >= ... >= UK (< U(K+1)); P(K odd | U1=u) is
// exactly e^-u, so accepting on odd K yields X = l + U1 ~ Exp(1) where l
// counts rejected rounds. Pure uint64 comparisons — no libm, so the stream
// is platform-identical.
Ticks ArrivalProcess::NextGap(std::uint64_t scale) {
  const std::uint64_t mean = mean_gap_ * scale;
  std::uint64_t l = 0;
  for (;;) {
    const std::uint64_t u1 = rng_.Next();
    std::uint64_t prev = u1;
    std::uint64_t run = 1;
    for (;;) {
      const std::uint64_t u = rng_.Next();
      if (u < prev) {
        prev = u;
        ++run;
      } else {
        break;
      }
    }
    if (run % 2 == 1) {
      const Ticks gap = static_cast<Ticks>(l * mean + MulFrac(u1, mean));
      return gap > 0 ? gap : 1;
    }
    ++l;
  }
}

// Pareto(alpha=2, xm=1) batch size: X = 1/sqrt(U) for uniform U, clamped to
// [1, 64]. Heavy-tailed bursts; the inter-batch gap is scaled by the batch
// size so the offered rate is preserved exactly in expectation.
std::uint64_t ArrivalProcess::ParetoBatch() {
  std::uint64_t u = rng_.Next();
  if (u == 0) {
    u = 1;
  }
  const std::uint64_t s = Isqrt(u);  // sqrt(u) in [1, 2^32).
  const std::uint64_t b = (std::uint64_t{1} << 32) / (s > 0 ? s : 1);
  return std::clamp<std::uint64_t>(b, 1, 64);
}

ServiceKind ArrivalProcess::PickKind() {
  if (weight_total_ <= 0) {
    return ServiceKind::kName;
  }
  std::uint64_t w = rng_.Below(static_cast<std::uint64_t>(weight_total_));
  for (int k = 0; k < kServiceKindCount; ++k) {
    if (w < static_cast<std::uint64_t>(kind_weights_[k])) {
      return static_cast<ServiceKind>(k);
    }
    w -= static_cast<std::uint64_t>(kind_weights_[k]);
  }
  return ServiceKind::kName;
}

std::vector<ArrivalProcess::Arrival> ArrivalProcess::NextBatch() {
  std::vector<Arrival> batch;
  NextBatch(batch);
  return batch;
}

void ArrivalProcess::NextBatch(std::vector<Arrival>& batch) {
  batch.clear();
  if (produced_ >= params_.total_arrivals) {
    return;
  }
  std::uint64_t n = params_.bursty ? ParetoBatch() : 1;
  n = std::min(n, params_.total_arrivals - produced_);
  next_tick_ += NextGap(n);
  batch.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Arrival a;
    a.tick = next_tick_;
    a.kind = PickKind();
    a.key = rng_.Next();
    FnvMix(&hash_, a.tick);
    FnvMix(&hash_, static_cast<std::uint64_t>(a.kind));
    FnvMix(&hash_, a.key);
    batch.push_back(a);
    ++produced_;
  }
}

// --- OpenLoopEngine --------------------------------------------------------

struct OpenLoopEngine::InjectorState {
  OpenLoopEngine* engine = nullptr;
  PortId reply_port = kInvalidPort;
  Thread* thread = nullptr;
};

namespace {

ServiceFabricConfig FabricConfig(const OpenLoopParams& params) {
  ServiceFabricConfig fc;
  fc.shed_depth = params.shed_depth;
  fc.admission_qlimit = params.admission_qlimit;
  fc.threads_per_shard = params.threads_per_shard;
  return fc;
}

}  // namespace

OpenLoopEngine::OpenLoopEngine(Kernel& kernel, const OpenLoopParams& params)
    : params_(params) {
  map_ = std::make_unique<ShardMap>(params_.services, std::vector<int>{0});
  fabrics_.push_back(
      std::make_unique<ServiceFabric>(kernel, *map_, 0, FabricConfig(params_)));
  fabric_nodes_.push_back(0);
  for (int k = 0; k < kServiceKindCount; ++k) {
    const ServiceKind kind = static_cast<ServiceKind>(k);
    route_[k].resize(static_cast<std::size_t>(map_->shard_count(kind)));
    for (int s = 0; s < map_->shard_count(kind); ++s) {
      route_[k][static_cast<std::size_t>(s)] = fabrics_[0]->PortFor(kind, s);
    }
  }
  BuildFrontend(kernel);
}

OpenLoopEngine::OpenLoopEngine(Cluster& cluster, const OpenLoopParams& params)
    : params_(params), cluster_(&cluster) {
  // Node 0 is the pure frontend; shards live on nodes 1..N-1 (all nodes
  // when the cluster is a single node).
  std::vector<int> serving;
  for (int i = 1; i < cluster.nnodes(); ++i) {
    serving.push_back(i);
  }
  if (serving.empty()) {
    serving.push_back(0);
  }
  map_ = std::make_unique<ShardMap>(params_.services, serving);
  const ServiceFabricConfig fc = FabricConfig(params_);
  for (int node : serving) {
    fabrics_.push_back(
        std::make_unique<ServiceFabric>(cluster.node(node), *map_, node, fc));
    fabric_nodes_.push_back(node);
  }
  for (int k = 0; k < kServiceKindCount; ++k) {
    const ServiceKind kind = static_cast<ServiceKind>(k);
    route_[k].resize(static_cast<std::size_t>(map_->shard_count(kind)));
    for (int s = 0; s < map_->shard_count(kind); ++s) {
      const int node = map_->NodeFor(kind, s);
      PortId remote = kInvalidPort;
      for (std::size_t f = 0; f < fabric_nodes_.size(); ++f) {
        if (fabric_nodes_[f] == node) {
          remote = fabrics_[f]->PortFor(kind, s);
          break;
        }
      }
      MKC_ASSERT(remote != kInvalidPort);
      route_[k][static_cast<std::size_t>(s)] =
          node == 0 ? remote : cluster.netipc(0).BindProxy(node, remote);
    }
  }
  BuildFrontend(cluster.node(0));
}

OpenLoopEngine::~OpenLoopEngine() = default;

void OpenLoopEngine::BuildFrontend(Kernel& front) {
  front_ = &front;
  client_margin_ =
      params_.client_margin != 0 ? params_.client_margin : params_.deadline / 4;

  SloConfig sc;
  sc.window = params_.slo_window;
  std::vector<std::pair<std::string, Ticks>> kinds;
  for (int k = 0; k < kServiceKindCount; ++k) {
    kinds.emplace_back(ServiceKindName(k), params_.deadline);
  }
  svc_slo_ = std::make_unique<SloTracker>(sc, std::move(kinds));

  arrivals_ = std::make_unique<ArrivalProcess>(params_);

  Task* task = front.CreateTask("openloop");
  frontdoor_ = front.ipc().AllocatePort(task);
  // Injectors are deliberately NON-daemon: they hold the run alive until
  // the arrival stream is exhausted and the backlog drained. They outrank
  // the service pools (priority 20) so a delivered reply is observed and
  // timestamped promptly even when every server thread is runnable —
  // otherwise measured latency is frontend starvation, not service time.
  ThreadOptions opts;
  opts.priority = 24;
  const int n = params_.injectors > 0 ? params_.injectors : 1;
  for (int i = 0; i < n; ++i) {
    auto inj = std::make_unique<InjectorState>();
    inj->engine = this;
    inj->reply_port = front.ipc().AllocatePort(task);
    inj->thread = front.CreateUserThread(task, &InjectorThread, inj.get(), opts);
    injectors_.push_back(std::move(inj));
  }

  arrivals_->NextBatch(next_batch_);
  if (next_batch_.empty()) {
    gen_done_ = true;
  } else {
    front.events().Post(next_batch_.front().tick, [this] { GeneratorFire(); });
  }
}

// The generator event: lands the due batch on the backlog (this is the
// open-loop contract — arrivals are injected at their stream tick no matter
// how far behind the servers are), schedules the next batch, and kicks
// parked injectors.
void OpenLoopEngine::GeneratorFire() {
  std::size_t pushed = 0;
  for (const ArrivalProcess::Arrival& a : next_batch_) {
    backlog_.push_back(PendingRequest{a.kind, a.key, a.tick});
    ++report_.kind[static_cast<int>(a.kind)].arrivals;
    ++pushed;
  }
  backlog_depth_ = backlog_.size();
  arrivals_->NextBatch(next_batch_);
  if (next_batch_.empty()) {
    gen_done_ = true;
    KickParked(injectors_.size());  // Wake everyone for drain-and-exit.
  } else {
    front_->events().Post(next_batch_.front().tick, [this] { GeneratorFire(); });
    KickParked(pushed);
  }
}

// Wakes up to `want` injectors parked in their frontdoor receive by direct
// delivery — no kmsg allocation, so a kick can never fail on zone pressure.
void OpenLoopEngine::KickParked(std::size_t want) {
  Port* port = front_->ipc().Lookup(frontdoor_);
  if (port == nullptr) {
    return;
  }
  static const std::uint64_t kEmptyBody = 0;
  MessageHeader hdr;
  hdr.dest = frontdoor_;
  hdr.msg_id = kSvcKickMsgId;
  hdr.size = 0;
  while (want > 0) {
    Thread* receiver = PopReceiverForDelivery(port, 0);
    if (receiver == nullptr) {
      break;
    }
    DeliverDirect(receiver, hdr, &kEmptyBody);
    front_->ThreadSetrun(receiver);
    --want;
  }
}

void OpenLoopEngine::InjectorThread(void* arg) {
  auto* inj = static_cast<InjectorState*>(arg);
  OpenLoopEngine* e = inj->engine;
  UserMessage msg;
  for (;;) {
    if (e->backlog_.empty()) {
      if (e->gen_done_) {
        return;
      }
      // Park continuation-blocked on the frontdoor until the generator
      // kicks us — an idle injector holds zero kernel stacks under MK40.
      UserMachMsg(&msg, kMsgRcvOpt, 0, kMaxInlineBytes, e->frontdoor_);
      continue;
    }
    const PendingRequest r = e->backlog_.front();
    e->backlog_.pop_front();
    e->backlog_depth_ = e->backlog_.size();
    e->IssueRequest(*inj, r.kind, r.key, r.arrival);
    // One scheduler pass per request: MK40's fast RPC handoff moves the
    // CPU injector->server->injector without consulting the run queue, so
    // under sustained overload a single injector can circulate forever in
    // handoffs while its runnable siblings — holding issued requests —
    // starve until drain and stamp their replies absurdly late. The yield
    // breaks the chain; with a quiet run queue it is just a fast trap.
    UserYield();
  }
}

void OpenLoopEngine::IssueRequest(InjectorState& inj, ServiceKind kind,
                                  std::uint64_t key, Ticks arrival) {
  const int k = static_cast<int>(kind);
  OpenLoopKindReport& kr = report_.kind[k];
  const Ticks deadline = params_.deadline != 0 ? arrival + params_.deadline : 0;
  const int shard = map_->ShardFor(kind, key);
  const PortId dest = route_[k][static_cast<std::size_t>(shard)];

  SvcRequestBody req;
  req.kind = static_cast<std::uint32_t>(k);
  req.shard = static_cast<std::uint32_t>(shard);
  req.key = key;
  req.arrival = arrival;
  req.deadline = deadline;

  for (std::uint32_t attempt = 0;; ++attempt) {
    // Client-side stale drop (armed with shedding): a request that cannot
    // complete before its deadline is dropped without issuing, so draining
    // an overload backlog costs ~nothing and server capacity goes to
    // requests that can still make it.
    if (params_.shed_depth > 0 && deadline != 0 &&
        ActiveKernel().VirtualTime() + client_margin_ > deadline) {
      ++kr.client_shed;
      ActiveKernel().TracePoint(TraceEvent::kSvcShed,
                                static_cast<std::uint32_t>(k), /*client=*/0);
      return;
    }
    req.attempt = attempt;
    UserMessage msg;
    msg.header.dest = dest;
    msg.header.msg_id = kSvcRequestMsgId;
    std::memcpy(msg.body, &req, sizeof(req));
    if (UserRpc(&msg, sizeof(req), inj.reply_port) != KernReturn::kSuccess) {
      ++kr.failed;
      return;
    }
    const Ticks now = ActiveKernel().VirtualTime();
    if (msg.header.msg_id == kSvcReplyMsgId) {
      ++kr.completed;
      if (deadline == 0 || now <= deadline) {
        ++kr.deadline_met;
      }
      // Latency epoch is the *arrival* tick: backlog wait counts, which is
      // exactly what makes the no-shedding ablation's tail blow up.
      svc_slo_->Record(k, now >= arrival ? now - arrival : 0, now);
      return;
    }
    if (msg.header.msg_id != kSvcRejectMsgId) {
      ++kr.failed;  // Unexpected reply shape.
      return;
    }
    SvcRejectBody rej;
    std::memcpy(&rej, msg.body, sizeof(rej));
    if (rej.reason == kSvcRejectDeadline) {
      ++kr.rejected_deadline;  // Final: the deadline has already passed.
      return;
    }
    ++kr.rejected_queue;
    if (static_cast<int>(attempt) >= params_.max_retries) {
      ++kr.failed;
      return;
    }
    ++kr.retries;
    ActiveKernel().TracePoint(TraceEvent::kSvcReject,
                              static_cast<std::uint32_t>(k), attempt + 1);
    // Retry with doubling backoff: a timed receive on our own (empty)
    // reply port; kRcvTimedOut is the expected outcome.
    const std::uint32_t shift = attempt < 16 ? attempt : 16;
    const Ticks backoff = params_.backoff_base << shift;
    if (backoff > 0) {
      UserMessage idle;
      UserMachMsg(&idle, kMsgRcvOpt, 0, kMaxInlineBytes, inj.reply_port, backoff);
    }
  }
}

OpenLoopReport OpenLoopEngine::Finish() {
  for (int k = 0; k < kServiceKindCount; ++k) {
    const OpenLoopKindReport& kr = report_.kind[k];
    report_.arrivals_total += kr.arrivals;
    report_.completed_total += kr.completed;
    report_.deadline_met_total += kr.deadline_met;
    report_.retries_total += kr.retries;
    report_.failed_total += kr.failed;
    report_.shed_total += kr.client_shed;
    report_.latency[k] = svc_slo_->CumulativeKind(k);
  }
  for (const auto& f : fabrics_) {
    report_.shed_total += f->stats().shed_total;
  }
  report_.stream_hash = arrivals_->stream_hash();
  report_.virtual_time =
      cluster_ != nullptr ? cluster_->VirtualTime() : front_->VirtualTime();
  return report_;
}

const SvcNodeStats* OpenLoopEngine::node_stats(int node) const {
  for (std::size_t i = 0; i < fabric_nodes_.size(); ++i) {
    if (fabric_nodes_[i] == node) {
      return &fabrics_[i]->stats();
    }
  }
  return nullptr;
}

SvcNodeStats OpenLoopEngine::TotalSvcStats() const {
  SvcNodeStats total;
  for (const auto& f : fabrics_) {
    const SvcNodeStats& s = f->stats();
    for (int k = 0; k < kServiceKindCount; ++k) {
      total.kind[k].admitted += s.kind[k].admitted;
      total.kind[k].shed_queue += s.kind[k].shed_queue;
      total.kind[k].shed_deadline += s.kind[k].shed_deadline;
    }
    total.admitted_total += s.admitted_total;
    total.shed_total += s.shed_total;
  }
  return total;
}

std::vector<Thread*> OpenLoopEngine::AllServiceThreads() const {
  std::vector<Thread*> out;
  for (const auto& f : fabrics_) {
    out.insert(out.end(), f->server_threads().begin(),
               f->server_threads().end());
  }
  return out;
}

}  // namespace mkc
