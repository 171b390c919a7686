// In-memory span recorder for traced runs.
//
// The benchmark times the public calls it makes into each library layer.
// Spans (name, start, end, parent, unit/request id) are appended to a
// per-run buffer and written out as JSON lines when the run ends. Leaf
// spans at batch-step granularity — one per layer call, about three
// million in a traced hybrid sweep — are kept as per-(parent, name)
// rollups of count and total time instead, so a traced run stays a few MB.
// Leaves of one parent run sequentially on one thread, so a rollup's total
// is exactly the time its leaves cover.
//
// Self time of a span is its duration minus the part of its interval that
// its child spans and leaf rollups cover.
//
// A disabled Tracer records nothing and reads no clock, so the same code
// path can run traced and untraced (that is how trace.overhead_frac is
// measured).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: spans never own their name
  double start_s = 0.0;   ///< seconds since the recorder's origin
  double end_s = 0.0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::string unit_id;       ///< unit / request the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled = true);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled); close it with
  /// end().
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::string unit_id = {});
  void end(std::int64_t index);
  /// Records an already-measured interval.
  std::int64_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent,
                      std::string unit_id = {});
  /// Adds one leaf span of `seconds` under `parent` to its rollup.
  void add_leaf(std::int64_t parent, const char* name, double seconds);

  /// Self time per span name, spans and rollups together.
  std::map<std::string, double> self_seconds() const;
  /// Share of the root spans' total duration that layer spans and layer
  /// rollups cover. A root is a whole traced operation (a sweep, one
  /// unit's replay, a request); a layer span is one named for a layer the search drives or
  /// the serving path calls (data., flops., nn., qnn., quantum., serve.).
  /// Roots and search.* spans (level, repeated search, run) are the
  /// containers those calls nest in and cover nothing themselves, so time
  /// spent outside every layer span (model build, workspace compile, row
  /// slicing, an untraced search) shows as missing coverage. Rollups are
  /// counted at their total: leaves of one parent run sequentially, between
  /// that parent's child spans. `root_name` limits the roots counted.
  double coverage(const char* root_name = nullptr) const;
  /// Writes one JSON object per span and per rollup to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  struct Rollup {
    std::uint64_t count = 0;
    double total_s = 0.0;
  };
  using RollupKey = std::pair<std::int64_t, const char*>;

  double to_s(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<RollupKey, Rollup> rollups_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent,
             std::string unit_id = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// RAII leaf span, folded into its parent's rollup when it closes.
class LeafSpan {
 public:
  LeafSpan(Tracer& tracer, const char* name, std::int64_t parent)
      : tracer_(tracer), name_(name), parent_(parent) {
    if (tracer_.enabled()) start_ = Clock::now();
  }
  ~LeafSpan() {
    if (tracer_.enabled()) {
      tracer_.add_leaf(parent_, name_, seconds_since(start_));
    }
  }
  LeafSpan(const LeafSpan&) = delete;
  LeafSpan& operator=(const LeafSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::int64_t parent_;
  Clock::time_point start_;
};

/// Heap allocations made by the calling thread since it started, counted
/// by the global operator new replacement in alloc_counter.cpp. Only the
/// traced binary links that replacement; the untraced one links
/// alloc_counter_off.cpp, where this is always 0.
std::uint64_t thread_allocations();
/// Whether this binary counts allocations, i.e. is the traced one.
bool counts_allocations();
/// The part of thread_allocations() the Tracer made itself, so a caller
/// can take the library's allocations between two points exactly.
std::uint64_t thread_tracer_allocations();

}  // namespace perfbench
