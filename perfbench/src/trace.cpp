#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace {
thread_local std::uint64_t tls_tracer_allocations = 0;

/// Charges the allocations made during its lifetime to the Tracer.
class TracerAllocationScope {
 public:
  TracerAllocationScope() : before_(perfbench::thread_allocations()) {}
  ~TracerAllocationScope() {
    tls_tracer_allocations += perfbench::thread_allocations() - before_;
  }
  TracerAllocationScope(const TracerAllocationScope&) = delete;
  TracerAllocationScope& operator=(const TracerAllocationScope&) = delete;

 private:
  std::uint64_t before_;
};
}  // namespace

namespace perfbench {

std::uint64_t thread_tracer_allocations() { return tls_tracer_allocations; }

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::to_s(Clock::time_point t) const {
  return seconds_between(origin_, t);
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::string unit_id) {
  if (!enabled_) return -1;
  const double start = to_s(Clock::now());
  TracerAllocationScope charge;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, start, parent, std::move(unit_id)});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  const double end = to_s(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(index)).end_s = end;
}

std::int64_t Tracer::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent,
                            std::string unit_id) {
  if (!enabled_) return -1;
  const double start_s = to_s(start);
  const double end_s = to_s(end);
  TracerAllocationScope charge;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_s, end_s, parent, std::move(unit_id)});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::add_leaf(std::int64_t parent, const char* name, double seconds) {
  if (!enabled_) return;
  TracerAllocationScope charge;
  std::lock_guard<std::mutex> lock(mutex_);
  Rollup& rollup = rollups_[RollupKey{parent, name}];
  ++rollup.count;
  rollup.total_s += seconds;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double union_length(std::vector<std::pair<double, double>> intervals,
                    double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

bool is_layer_span(const char* name) {
  static constexpr std::string_view kLayers[] = {
      "data.", "flops.", "nn.", "qnn.", "quantum.", "serve."};
  const std::string_view text{name};
  for (std::string_view prefix : kLayers) {
    if (text.starts_with(prefix)) return true;
  }
  return false;
}

}  // namespace

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_s, span.end_s);
    }
  }
  std::vector<double> leaf_time(spans_.size(), 0.0);
  std::map<std::string, double> self;
  for (const auto& [key, rollup] : rollups_) {
    self[key.second] += rollup.total_s;
    if (key.first >= 0) {
      leaf_time[static_cast<std::size_t>(key.first)] += rollup.total_s;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] +=
        (span.end_s - span.start_s) - leaf_time[i] -
        union_length(std::move(children[i]), span.start_s, span.end_s);
  }
  return self;
}

double Tracer::coverage(const char* root_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Spans are appended after their parent, so one forward pass finds each
  // span's root and its outermost layer-span ancestor (-1: none).
  std::vector<std::int64_t> root(spans_.size());
  std::vector<std::int64_t> layer(spans_.size(), -1);
  std::map<std::int64_t, std::vector<std::pair<double, double>>> layer_spans;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t parent = spans_[i].parent;
    if (parent < 0) {
      root[i] = static_cast<std::int64_t>(i);
      continue;
    }
    const auto p = static_cast<std::size_t>(parent);
    root[i] = root[p];
    if (layer[p] >= 0) {
      layer[i] = layer[p];
    } else if (is_layer_span(spans_[i].name)) {
      layer[i] = static_cast<std::int64_t>(i);
      layer_spans[root[i]].emplace_back(spans_[i].start_s, spans_[i].end_s);
    }
  }
  std::map<std::int64_t, double> layer_leaves;
  for (const auto& [key, rollup] : rollups_) {
    const auto p = static_cast<std::size_t>(key.first);
    if (key.first >= 0 && layer[p] < 0 && is_layer_span(key.second)) {
      layer_leaves[root[p]] += rollup.total_s;
    }
  }
  double total = 0.0;
  double covered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0) continue;
    if (root_name != nullptr && std::strcmp(span.name, root_name) != 0) {
      continue;
    }
    const auto r = static_cast<std::int64_t>(i);
    const double duration = span.end_s - span.start_s;
    total += duration;
    covered += std::min(
        duration, union_length(std::move(layer_spans[r]), span.start_s,
                               span.end_s) +
                      layer_leaves[r]);
  }
  return total > 0.0 ? covered / total : 0.0;
}

void Tracer::write_jsonl(const std::string& path) const {
  // Written with stdio, not util::Json: names and ids are benchmark-made
  // ASCII without quotes or backslashes.
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("trace: cannot write " + path);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%lld,\"id\":\"%s\"}\n",
                 span.name, span.start_s, span.end_s,
                 static_cast<long long>(span.parent), span.unit_id.c_str());
  }
  for (const auto& [key, rollup] : rollups_) {
    std::fprintf(out,
                 "{\"rollup\":\"%s\",\"parent\":%lld,\"count\":%llu,"
                 "\"total_s\":%.9f}\n",
                 key.second, static_cast<long long>(key.first),
                 static_cast<unsigned long long>(rollup.count),
                 rollup.total_s);
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error("trace: error closing " + path);
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent,
                       std::string unit_id)
    : tracer_(tracer),
      index_(tracer.begin(name, parent, std::move(unit_id))) {}

ScopedSpan::~ScopedSpan() { tracer_.end(index_); }

}  // namespace perfbench
