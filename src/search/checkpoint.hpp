// Crash-safe resumable study execution (DESIGN.md §10).
//
// The paper's full pipeline is an hours-long sweep; this checkpoint makes
// it durable. The unit of work is one candidate evaluation, keyed by
// (family, features, repetition, candidate index in FLOPs order). Completed
// units are recorded in a JSON manifest and flushed with an atomic
// temp+flush+rename at every unit boundary, so a crash, OOM kill, or
// SIGTERM at ANY point leaves either the previous complete manifest or the
// new one — never a truncated file.
//
// Resume correctness is exact, not approximate: the search draws every RNG
// split in the original order whether a unit is replayed or retrained
// (the unit scheduler), doubles round-trip the JSON encoder bit-for-bit (%.17g),
// and a config/dataset-seed hash rejects a manifest produced by a different
// protocol. A study interrupted at an arbitrary unit boundary and resumed
// therefore produces a StudyResult::to_json() byte-identical to an
// uninterrupted run — the property the resume tests pin.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "search/experiment.hpp"
#include "util/json.hpp"

namespace qhdl::search {

/// Identity of one completed work unit.
struct UnitKey {
  std::string family;         ///< family_name() ("" for standalone searches)
  std::size_t features = 0;   ///< complexity level
  std::size_t repetition = 0;
  std::size_t candidate = 0;  ///< index in FLOPs order

  /// Manifest key: "<family>/f<features>/r<repetition>/c<candidate>".
  std::string to_string() const;
};

/// Durable manifest of completed work units plus their results.
/// Thread-safe: concurrent sweep levels record and flush through one
/// instance.
class StudyCheckpoint {
 public:
  /// Binds to `path`; nothing is read or written yet. `config_hash`
  /// (sweep_config_hash) guards resumes against stale manifests. An empty
  /// path makes the checkpoint memory-only: load() restores nothing and
  /// flush() is a no-op (the serve layer's cache uses this when disk spill
  /// is disabled).
  StudyCheckpoint(std::string path, std::string config_hash);

  /// Loads an existing manifest if `path` exists; returns the number of
  /// restored units (0 when starting fresh). Throws std::runtime_error on a
  /// config-hash mismatch (stale checkpoint — different protocol or seeds)
  /// or a corrupt manifest.
  std::size_t load();

  /// Recorded result for a unit, or nullopt when it has not completed.
  std::optional<CandidateResult> find(const UnitKey& key) const;

  /// Records a completed unit (in memory; flush() persists).
  void record(const UnitKey& key, const CandidateResult& result);

  /// Atomically persists the manifest via util::atomic_write_file.
  void flush() const;

  std::size_t completed_units() const;
  const std::string& path() const { return path_; }
  const std::string& config_hash() const { return hash_; }

  /// Replay counters: how many find() lookups hit a recorded unit vs came
  /// up empty since construction. The serve layer's result cache surfaces
  /// these as its per-config hit/miss statistics (a fully warmed repeat of
  /// a sweep is 100% hits), and the golden cache-determinism test asserts
  /// on them.
  std::size_t replay_hits() const;
  std::size_t replay_misses() const;

 private:
  std::string path_;
  std::string hash_;
  mutable std::mutex mutex_;
  // std::map keeps manifest keys sorted -> deterministic file bytes.
  std::map<std::string, util::Json> units_;
  mutable std::size_t replay_hits_ = 0;
  mutable std::size_t replay_misses_ = 0;
};

/// FNV-1a hash (hex) over every SweepConfig field that affects results —
/// protocol counts, seeds, dataset geometry, thresholds, cost model — and
/// none that cannot (threads: results are invariant in it by the §7
/// determinism guarantee, so a resume may change it freely).
std::string sweep_config_hash(const SweepConfig& config);

/// Exact (bit-round-tripping) CandidateResult <-> JSON conversion used by
/// the manifest; exposed for the resume tests.
util::Json candidate_result_to_json(const CandidateResult& result);
CandidateResult candidate_result_from_json(const util::Json& json);

/// ModelSpec <-> JSON, shared by the manifest and the worker protocol
/// (search/worker_protocol.hpp) so both speak the same encoding.
util::Json model_spec_to_json(const ModelSpec& spec);
ModelSpec model_spec_from_json(const util::Json& json);

}  // namespace qhdl::search
