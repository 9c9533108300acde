#include "src/obs/slo.h"

#include <cstdio>
#include <utility>

namespace mkc {
namespace {

void WriteFixed2(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  *out += buf;
}

// Kind index for a span kind; -1 for kinds the tracker ignores (kNone).
int KindIndex(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRpc:
      return 0;
    case SpanKind::kFault:
      return 1;
    case SpanKind::kException:
      return 2;
    default:
      return -1;
  }
}

SloKindSnapshot View(const LatencyHistogram& hist, std::uint64_t violations) {
  SloKindSnapshot s;
  s.count = hist.count();
  s.p50 = hist.P50();
  s.p99 = hist.P99();
  s.p999 = hist.P999();
  s.violations = violations;
  return s;
}

}  // namespace

const char* SloTracker::KindName(int kind) {
  switch (kind) {
    case 0:
      return "rpc";
    case 1:
      return "fault";
    case 2:
      return "exception";
    default:
      return "?";
  }
}

SloTracker::SloTracker(const SloConfig& config)
    : SloTracker(config, {{"rpc", config.target_rpc},
                          {"fault", config.target_fault},
                          {"exception", config.target_exc}}) {}

SloTracker::SloTracker(const SloConfig& config,
                       std::vector<std::pair<std::string, Ticks>> kinds)
    : config_(config) {
  if (config_.subwindows < 1) {
    config_.subwindows = 1;
  }
  sub_ticks_ = config_.window / static_cast<Ticks>(config_.subwindows);
  if (sub_ticks_ == 0) {
    sub_ticks_ = 1;
  }
  kinds_.resize(kinds.size());
  names_.reserve(kinds.size());
  targets_.reserve(kinds.size());
  for (auto& [name, target] : kinds) {
    names_.push_back(std::move(name));
    targets_.push_back(target);
  }
  for (KindState& k : kinds_) {
    k.ring.resize(static_cast<std::size_t>(config_.subwindows));
  }
}

const char* SloTracker::kind_name(int kind) const {
  if (kind < 0 || static_cast<std::size_t>(kind) >= names_.size()) {
    return "?";
  }
  return names_[static_cast<std::size_t>(kind)].c_str();
}

void SloTracker::OnSpanBegin(std::uint32_t id, SpanKind kind, Ticks now) {
  int k = KindIndex(kind);
  if (k < 0) {
    return;
  }
  AdvanceTo(now);
  open_[id] = {now, static_cast<std::uint8_t>(k)};
}

void SloTracker::OnSpanEnd(std::uint32_t id, SpanKind kind, Ticks now) {
  (void)kind;  // The begin record's kind is authoritative.
  auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  Ticks begin = it->second.first;
  int k = it->second.second;
  open_.erase(it);
  Record(k, now >= begin ? now - begin : 0, now);
}

void SloTracker::Record(int kind, Ticks latency, Ticks now) {
  if (kind < 0 || static_cast<std::size_t>(kind) >= kinds_.size()) {
    return;
  }
  AdvanceTo(now);
  KindState& state = kinds_[kind];
  SubWindow& slot = state.ring[cur_sub_ % static_cast<std::uint64_t>(config_.subwindows)];
  slot.hist.Record(latency);
  state.cumulative.Record(latency);
  ++spans_recorded_;
  if (targets_[kind] != 0 && latency > targets_[kind]) {
    ++slot.violations;
    ++state.cum_violations;
  }
}

void SloTracker::AdvanceTo(Ticks now) {
  std::uint64_t target = now / sub_ticks_;
  std::uint64_t n = static_cast<std::uint64_t>(config_.subwindows);
  while (cur_sub_ < target) {
    ++cur_sub_;
    for (KindState& k : kinds_) {
      k.ring[cur_sub_ % n] = SubWindow{};
    }
  }
}

SloKindSnapshot SloTracker::WindowedKind(int kind, Ticks now) {
  AdvanceTo(now);
  LatencyHistogram merged;
  std::uint64_t violations = 0;
  for (const SubWindow& s : kinds_[kind].ring) {
    merged.Merge(s.hist);
    violations += s.violations;
  }
  return View(merged, violations);
}

SloKindSnapshot SloTracker::CumulativeKind(int kind) const {
  return View(kinds_[kind].cumulative, kinds_[kind].cum_violations);
}

double SloTracker::Burn(std::uint64_t violations, std::uint64_t count) const {
  if (count == 0 || violations == 0) {
    return 0.0;
  }
  std::uint32_t budget_permille =
      config_.objective_permille < 1000 ? 1000 - config_.objective_permille : 1;
  double violation_rate =
      static_cast<double>(violations) / static_cast<double>(count);
  return violation_rate / (static_cast<double>(budget_permille) / 1000.0);
}

void SloTracker::AppendKindJson(std::string* out, const SloKindSnapshot& s) {
  *out += "{\"count\":";
  AppendU64(out, s.count);
  *out += ",\"p50\":";
  AppendU64(out, s.p50);
  *out += ",\"p99\":";
  AppendU64(out, s.p99);
  *out += ",\"p999\":";
  AppendU64(out, s.p999);
  *out += ",\"violations\":";
  AppendU64(out, s.violations);
  *out += ",\"burn\":";
  WriteFixed2(out, Burn(s.violations, s.count));
  *out += "}";
}

std::string SloTracker::JsonBlock(Ticks now) {
  AdvanceTo(now);
  std::string out;
  out.reserve(512);
  out += "{\"config\":{\"window\":";
  AppendU64(&out, config_.window);
  out += ",\"subwindows\":";
  AppendU64(&out, static_cast<std::uint64_t>(config_.subwindows));
  out += ",\"objective_permille\":";
  AppendU64(&out, config_.objective_permille);
  out += "},\"windows_completed\":";
  AppendU64(&out, cur_sub_ / static_cast<std::uint64_t>(config_.subwindows));
  out += ",\"kinds\":{";
  for (int k = 0; k < kind_count(); ++k) {
    if (k != 0) {
      out += ",";
    }
    out += "\"";
    out += kind_name(k);
    out += "\":{\"target\":";
    AppendU64(&out, targets_[k]);
    out += ",\"cumulative\":";
    AppendKindJson(&out, CumulativeKind(k));
    out += ",\"window\":";
    AppendKindJson(&out, WindowedKind(k, now));
    out += "}";
  }
  out += "}}";
  return out;
}

std::string SloTracker::MergedJsonBlock(
    const std::vector<const SloTracker*>& nodes) {
  std::string out = "{\"nodes\":";
  AppendU64(&out, nodes.size());
  out += ",\"kinds\":{";
  if (nodes.empty()) {
    out += "}}";
    return out;
  }
  const SloTracker* first_node = nodes.front();
  for (int k = 0; k < first_node->kind_count(); ++k) {
    // Bucket-exact fold across nodes: identical to one global tracker.
    LatencyHistogram merged;
    std::uint64_t violations = 0;
    for (const SloTracker* t : nodes) {
      merged.Merge(t->kinds_[k].cumulative);
      violations += t->kinds_[k].cum_violations;
    }
    if (k != 0) {
      out += ",";
    }
    out += "\"";
    out += first_node->kind_name(k);
    out += "\":{\"target\":";
    AppendU64(&out, first_node->targets_[k]);
    out += ",\"count\":";
    AppendU64(&out, merged.count());
    out += ",\"p50\":";
    AppendU64(&out, merged.P50());
    out += ",\"p99\":";
    AppendU64(&out, merged.P99());
    out += ",\"p999\":";
    AppendU64(&out, merged.P999());
    out += ",\"violations\":";
    AppendU64(&out, violations);
    out += ",\"burn\":";
    WriteFixed2(&out, first_node->Burn(violations, merged.count()));
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace mkc
