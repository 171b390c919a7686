// The supervisor <-> worker wire protocol and the worker-process entry
// point (DESIGN.md §11).
//
// A work unit is one candidate evaluation — the same (family, features,
// repetition, candidate) unit the PR-4 checkpoint keys — plus everything a
// fresh process needs to reproduce it bit-for-bit: the candidate's
// ModelSpec, the pre-split per-run RNG streams the in-process search would
// have consumed, and the sweep config the unit belongs to. The worker
// re-derives the level dataset and the repetition's train/val split from
// that config (replaying exactly the derivation run_repeated_search
// performs), trains the unit with qhdl::search::evaluate_candidate on the
// shipped streams, and returns the CandidateResult in the checkpoint's own
// JSON encoding — so a multi-process sweep is byte-identical to an
// in-process one. Because every unit names its config, one worker serves
// units of any number of studies, interleaved.
//
// Framing: every message is a 4-byte big-endian payload length followed by
// that many bytes of UTF-8 JSON. Frame types:
//   supervisor -> worker: init {version, heartbeat_interval_ms}
//                         unit {config, unit}
//                         shutdown {}
//   worker -> supervisor: register {version, backend, slots, slot, pid}
//                         ready {pid}
//                         heartbeat {key}        (ticks while training)
//                         result {key, result}
//                         error {key, message}   (unit failed cleanly)
// Anything else — oversized lengths, unparseable JSON, unknown types — is
// garbage; the supervisor kills the emitting worker and retries the unit.
//
// Every worker opens its session with a `register` frame (protocol version,
// kernel backend name, slot count) and becomes schedulable only once the
// supervisor answers with `init` (DESIGN.md §16). A local child
// (`--workers N`) speaks over one end of a socketpair as its stdin and
// stdout; a remote daemon (`qhdl_worker --connect host:port`) over a TCP
// connection. The bytes are the same on both.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/preprocess.hpp"
#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "util/deadline.hpp"

namespace qhdl::search {

// v2 added the registration handshake (`register` frames); v3 moved the
// sweep config from `init` into every `unit` frame. Framing is unchanged
// from v1.
inline constexpr int kWorkerProtocolVersion = 3;

/// Upper bound on a frame payload; a length prefix beyond it means the
/// stream is garbage (a real unit/result frame is a few KB).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// A corrupt or malformed protocol stream (bad length, bad JSON, wrong
/// frame shape). The supervisor treats it as a worker failure.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message)
      : std::runtime_error("worker protocol: " + message) {}
};

/// One shippable candidate evaluation.
struct WorkUnit {
  UnitKey key;
  ModelSpec spec;
  /// Pre-split per-run streams, exactly the ones the in-process search
  /// draws for this candidate (one per runs_per_model, consumed in order).
  std::vector<util::Rng> streams;
};

// --- framing --------------------------------------------------------------

/// Serializes `payload` as one length-prefixed frame. Returns false when
/// the descriptor is broken (peer died); never raises SIGPIPE.
bool write_frame(int fd, const std::string& payload);

/// The on-the-wire bytes of one frame (4-byte big-endian length + payload),
/// for callers that write through their own descriptor wrapper (the pool's
/// Subprocess stdin, the serve layer's Socket). Throws ProtocolError when
/// the payload exceeds kMaxFrameBytes.
std::string frame_wire(const std::string& payload);

/// Incremental frame decoder: feed() raw pipe/socket bytes, next() yields
/// complete payloads. Throws ProtocolError on a garbage length prefix
/// (anything beyond kMaxFrameBytes), naming the offending length.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size);
  std::optional<std::string> next();

  /// True when a frame is partially buffered — EOF here means the peer
  /// disconnected mid-frame (a truncated frame), not a clean close.
  bool mid_frame() const { return !buffer_.empty(); }

  /// Human-readable description of the partial frame ("" at a frame
  /// boundary), used to build descriptive truncation errors.
  std::string pending_description() const;

 private:
  std::string buffer_;
};

/// Outcome of one read_frame() call that did not throw.
enum class FrameReadStatus {
  Frame,    ///< *payload holds one complete frame
  Eof,      ///< peer closed cleanly at a frame boundary
  Timeout,  ///< deadline expired before a full frame arrived
};

/// Deadline-aware framed read from a stream descriptor (pipe or socket).
/// Polls in short slices so a hung peer cannot wedge the caller forever: a
/// pending process interrupt throws util::Interrupted, deadline expiry
/// returns Timeout, and EOF mid-frame throws ProtocolError naming how many
/// bytes of the frame actually arrived. This is the serve layer's read
/// primitive, so it observes the `sock` fault-injection site
/// (short/drop/slow peer emulation).
FrameReadStatus read_frame(int fd, FrameReader& reader,
                           const util::Deadline& deadline,
                           std::string* payload);

// --- JSON codecs ----------------------------------------------------------

util::Json sweep_config_to_json(const SweepConfig& config);
SweepConfig sweep_config_from_json(const util::Json& json);

/// Exact Rng state round-trip (state words as hex strings — util::Json
/// numbers are doubles and cannot carry 64 bits).
util::Json rng_to_json(const util::Rng& rng);
util::Rng rng_from_json(const util::Json& json);

util::Json work_unit_to_json(const WorkUnit& unit);
WorkUnit work_unit_from_json(const util::Json& json);

/// The opening frame of every worker session: who it is and what it
/// brings. `backend` is the worker's active SIMD kernel backend
/// name — the supervisor warns when it differs from its own, because only
/// the production backends (generic/avx2/avx512fma) are bit-identical.
struct WorkerRegistration {
  int version = kWorkerProtocolVersion;
  std::string backend;
  std::size_t slots = 1;  ///< total evaluation slots the daemon offers
  std::size_t slot = 0;   ///< which of them this connection carries
  long pid = 0;
};

util::Json registration_to_json(const WorkerRegistration& registration);
WorkerRegistration registration_from_json(const util::Json& json);

/// Exponential backoff with deterministic jitter: the exponential base
/// (initial_ms doubled failures-1 times, capped at max_ms) plus a hash of
/// (seed, salt, failures) spread over [base/2, base]. Reconnecting daemons
/// salt with their slot index, so a healed partition does not produce a
/// synchronized reconnect storm — yet the schedule is a pure function of
/// its inputs and reproducible under the fault matrix.
std::uint64_t backoff_with_jitter_ms(std::uint64_t initial_ms,
                                     std::uint64_t max_ms,
                                     std::size_t failures, std::uint64_t seed,
                                     std::uint64_t salt);

/// Splits "host:port" ("127.0.0.1:7401"). Returns false on a malformed
/// string or an out-of-range port.
bool parse_host_port(const std::string& text, std::string* host,
                     std::uint16_t* port);

// --- unit evaluation (shared with the pool's in-process degradation) ------

/// Re-derives level datasets and repetition splits from the sweep config,
/// caching a bounded number of recent splits (workers receive many units
/// for the same level/repetition in a row). Entries are keyed by
/// (sweep_config_hash, features, repetition): units of different studies
/// share a worker, and two configs can meet at one level and repetition.
/// Thread-safe; entries are shared_ptr so an eviction cannot invalidate a
/// split in use.
class UnitDataCache {
 public:
  UnitDataCache();

  std::shared_ptr<const data::TrainValSplit> split_for(
      const SweepConfig& config, std::size_t features,
      std::size_t repetition);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Evaluates one unit exactly as the in-process search would: same split,
/// same streams, same arithmetic. Used by worker_main and by the pool when
/// it degrades to in-process execution.
CandidateResult evaluate_unit(const SweepConfig& config, const WorkUnit& unit,
                              UnitDataCache& cache);

/// The result recorded for a unit whose every supervised attempt failed
/// (crash/hang/garbage beyond the retry budget): analytic FLOPs/parameter
/// metadata is kept, runs = 0 so it can never contribute to accuracy means,
/// and one RunFailure per attempt (cause "worker:<reason>") documents what
/// happened — the same quarantine shape the PR-4 non-finite guard uses.
CandidateResult quarantined_unit_result(
    const SweepConfig& config, const WorkUnit& unit,
    const std::vector<std::string>& attempt_causes);

/// Worker-process entry point: drivers dispatch to this when invoked with
/// --worker-mode. Registers as slot 0 of 1, then speaks the framed protocol
/// on stdin/stdout (the pool's socketpair) until EOF or a shutdown frame;
/// stderr is ordinary logging. Returns the process exit code. Observes the
/// FaultInjector's `worker` site on each unit receipt.
int worker_main();

/// Remote worker daemon (qhdl_worker --connect, or a test binary's
/// --worker-connect). One thread per slot dials the supervisor, sends a
/// `register` frame, then serves the same init/unit protocol over the
/// socket until a shutdown frame arrives; a dropped connection is redialed.
struct RemoteWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t slots = 1;
  std::uint64_t connect_timeout_ms = 5000;
  /// Jittered exponential backoff between reconnect attempts.
  std::uint64_t reconnect_initial_ms = 200;
  std::uint64_t reconnect_max_ms = 10000;
  std::uint64_t jitter_seed = 0x716864'6cULL;  // fixed default: reproducible
  /// Consecutive failed dial/serve attempts per slot before the slot gives
  /// up (0 = retry forever). A served session resets the count.
  std::size_t max_reconnect_failures = 0;
};

/// Runs the daemon until every slot has ended. Returns 0 when all slots
/// ended on a clean shutdown frame, 1 when any slot gave up reconnecting.
int remote_worker_main(const RemoteWorkerOptions& options);

}  // namespace qhdl::search
