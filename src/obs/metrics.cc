#include "src/obs/metrics.h"

#include <cmath>

namespace mkc {
namespace {

// Minimal JSON string escaper; metric names are ASCII identifiers, but the
// dump must stay valid JSON no matter what a caller registers.
void WriteJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

Ticks LatencyHistogram::BucketUpperBound(int i) {
  if (i <= 0) {
    return 0;
  }
  return (Ticks{1} << i) - 1;
}

Ticks LatencyHistogram::BucketLowerBound(int i) {
  if (i <= 0) {
    return 0;
  }
  return Ticks{1} << (i - 1);
}

Ticks LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  // Rank of the requested percentile, 1-based, rounded up (nearest-rank).
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank == 0) {
    rank = 1;
  }
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      Ticks bound = BucketUpperBound(i);
      return bound < max_ ? bound : max_;
    }
  }
  return max_;
}

void MetricsRegistry::SetLabel(std::string key, std::string value) {
  for (auto& l : labels_) {
    if (l.first == key) {
      l.second = std::move(value);
      return;
    }
  }
  labels_.emplace_back(std::move(key), std::move(value));
}

void MetricsRegistry::RegisterCounter(std::string name, const std::uint64_t* value) {
  counters_.push_back(View{std::move(name), value});
}

void MetricsRegistry::RegisterGauge(std::string name, const std::uint64_t* value) {
  gauges_.push_back(View{std::move(name), value});
}

LatencyHistogram* MetricsRegistry::RegisterHistogram(std::string name) {
  histograms_.push_back(Hist{std::move(name), std::make_unique<LatencyHistogram>(), {}});
  return histograms_.back().hist.get();
}

void MetricsRegistry::RegisterMergedHistogram(
    std::string name, std::vector<const LatencyHistogram*> sources) {
  histograms_.push_back(Hist{std::move(name), nullptr, std::move(sources)});
}

const std::uint64_t* MetricsRegistry::FindCounter(const std::string& name) const {
  for (const auto& c : counters_) {
    if (c.name == name) {
      return c.value;
    }
  }
  return nullptr;
}

const std::uint64_t* MetricsRegistry::FindGauge(const std::string& name) const {
  for (const auto& g : gauges_) {
    if (g.name == name) {
      return g.value;
    }
  }
  return nullptr;
}

const LatencyHistogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  for (const auto& h : histograms_) {
    if (h.name == name) {
      // Merged views own no storage; callers wanting their contents go
      // through ForEachHistogram / DumpJson, which materialize the fold.
      return h.hist.get();
    }
  }
  return nullptr;
}

void MetricsRegistry::SetJsonBlock(std::string name,
                                   std::function<std::string()> fn) {
  for (auto& b : json_blocks_) {
    if (b.first == name) {
      b.second = std::move(fn);
      return;
    }
  }
  json_blocks_.emplace_back(std::move(name), std::move(fn));
}

void MetricsRegistry::ResetHistograms() {
  for (auto& h : histograms_) {
    if (h.hist != nullptr) {
      h.hist->Reset();
    }
  }
}

std::string MetricsRegistry::DumpJsonString() const {
  std::string out;
  out.reserve(4096);
  out += "{\"meta\":{";
  bool first = true;
  for (const auto& l : labels_) {
    if (!first) {
      out += ",";
    }
    first = false;
    WriteJsonString(&out, l.first);
    out += ":";
    WriteJsonString(&out, l.second);
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& c : counters_) {
    if (!first) {
      out += ",";
    }
    first = false;
    WriteJsonString(&out, c.name);
    out += ":";
    AppendU64(&out, *c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges_) {
    if (!first) {
      out += ",";
    }
    first = false;
    WriteJsonString(&out, g.name);
    out += ":";
    AppendU64(&out, *g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms_) {
    if (!first) {
      out += ",";
    }
    first = false;
    WriteJsonString(&out, h.name);
    const LatencyHistogram hist = h.sources.empty() ? *h.hist : MaterializeMerged(h);
    out += ":{\"count\":";
    AppendU64(&out, hist.count());
    out += ",\"sum\":";
    AppendU64(&out, hist.sum());
    out += ",\"min\":";
    AppendU64(&out, hist.min());
    out += ",\"max\":";
    AppendU64(&out, hist.max());
    out += ",\"p50\":";
    AppendU64(&out, hist.P50());
    out += ",\"p90\":";
    AppendU64(&out, hist.P90());
    out += ",\"p99\":";
    AppendU64(&out, hist.P99());
    out += ",\"p999\":";
    AppendU64(&out, hist.P999());
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      if (hist.bucket(i) == 0) {
        continue;
      }
      if (!first_bucket) {
        out += ",";
      }
      first_bucket = false;
      out += "[";
      AppendU64(&out, LatencyHistogram::BucketLowerBound(i));
      out += ",";
      AppendU64(&out, LatencyHistogram::BucketUpperBound(i));
      out += ",";
      AppendU64(&out, hist.bucket(i));
      out += "]";
    }
    out += "]}";
  }
  out += "}";
  for (const auto& b : json_blocks_) {
    out += ",";
    WriteJsonString(&out, b.first);
    out += ":";
    out += b.second();
  }
  out += "}";
  return out;
}

void MetricsRegistry::DumpJson(std::FILE* out) const {
  std::string json = DumpJsonString();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
}

}  // namespace mkc
