// Content-addressed result cache for the serving layer (DESIGN.md §15).
//
// The cache key is the PR-4 FNV-1a sweep-config hash
// (search::sweep_config_hash): two requests whose configs agree on every
// result-affecting field — and only those fields; threads is excluded by
// construction — share one entry. An entry is a
// search::StudyCheckpoint, the same durable unit manifest the resume path
// uses, so "cache hit" and "bit-identical resume replay" are one mechanism:
// a repeated study replays every completed unit (byte-identical by the §10
// guarantee), and a cancelled or crashed job's completed units are already
// in the entry when the client retries.
//
// Memory is a bounded LRU of live checkpoints; when `dir` is set, an entry
// evicted from memory survives as `<dir>/<hash>.units.json` (written with
// util::atomic_write_file via the checkpoint's own flush) and is reloaded
// on the next request for that hash. With no dir the cache is memory-only
// and eviction discards results.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "search/checkpoint.hpp"
#include "search/experiment.hpp"

namespace qhdl::serve {

/// Counters exposed over the `stats` request. Hits/misses are unit-level
/// replay counters summed across all entries the cache has ever owned
/// (evicted entries keep contributing their totals).
struct ResultCacheStats {
  std::size_t entries = 0;      ///< live in-memory entries
  std::size_t unit_hits = 0;    ///< unit lookups served from a manifest
  std::size_t unit_misses = 0;  ///< unit lookups that had to train
  std::size_t evictions = 0;    ///< entries pushed out of the memory LRU
  std::size_t disk_loads = 0;   ///< entries restored from disk spill
};

/// Thread-safe get-or-create LRU of per-config-hash checkpoints.
class ResultCache {
 public:
  /// `dir` enables disk spill ("" = memory-only); `capacity` bounds the
  /// number of in-memory entries (min 1).
  ResultCache(std::string dir, std::size_t capacity);

  /// The checkpoint for this config's hash: returns the live entry,
  /// reloads a spilled manifest from disk, or creates a fresh entry.
  /// Touches the entry in the LRU; may evict (and flush) the
  /// least-recently-used other entry. A stale or corrupt spill file is
  /// discarded with a warning, never an error.
  std::shared_ptr<search::StudyCheckpoint> checkpoint_for(
      const search::SweepConfig& config);

  /// Flushes every live entry to disk (no-op when memory-only). Called on
  /// graceful drain.
  void flush_all();

  ResultCacheStats stats() const;

 private:
  void evict_locked();

  std::string dir_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// LRU order, most recent first; the map points into the list.
  std::list<std::string> order_;
  struct Entry {
    std::shared_ptr<search::StudyCheckpoint> checkpoint;
    std::list<std::string>::iterator order_it;
  };
  std::unordered_map<std::string, Entry> entries_;
  /// Replay totals of evicted entries, so stats() never regresses.
  std::size_t retired_hits_ = 0;
  std::size_t retired_misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t disk_loads_ = 0;
};

}  // namespace qhdl::serve
