#include "search/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "util/backend_registry.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"
#include "util/wake_pipe.hpp"

namespace qhdl::search {

namespace {

/// "127.0.0.1:43210" for an accepted TCP connection, for logs.
std::string peer_of(const util::Socket& socket) {
#if defined(__unix__) || defined(__APPLE__)
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) ==
          0 &&
      addr.sin_family == AF_INET) {
    char host[INET_ADDRSTRLEN] = {0};
    if (::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host)) != nullptr) {
      return std::string{host} + ":" + std::to_string(ntohs(addr.sin_port));
    }
  }
#endif
  return "remote worker";
}

}  // namespace

struct WorkerPool::Impl {
  /// A transport loss may re-dispatch a unit without charging a retry
  /// attempt; this cap stops a unit that somehow kills every transport it
  /// touches from cycling forever.
  static constexpr std::size_t kMaxOrphanRedispatch = 8;

  /// A unit somewhere between submission and resolution. `attempts` counts
  /// failed attempts; the promise is set exactly once (result, quarantine,
  /// or exception).
  struct PendingUnit {
    WorkUnit unit;
    /// The shipped sweep config, shared by the units of one evaluate() call.
    std::shared_ptr<const SweepConfig> config;
    std::string wire;  ///< the unit frame, built once at submission
    std::size_t attempts = 0;
    std::size_t replicas = 0;    ///< dispatched copies currently in flight
    std::size_t orphanings = 0;  ///< uncharged re-dispatches (transport loss)
    std::uint64_t first_dispatch_ms = 0;  ///< straggler clock, per dispatch
    std::vector<std::string> causes;
    std::promise<CandidateResult> promise;
    bool resolved = false;
  };

  /// One worker slot: a stream socket to a worker process — the pool's own
  /// child over a socketpair, or an accepted daemon connection. Every slot
  /// enters through the same handshake (the worker's `register` frame,
  /// answered with `init`) and is schedulable only once registered.
  /// Ownership is the one fact that differs: an owned child is respawned in
  /// place, an accepted connection is erased when lost (the daemon's
  /// reconnect shows up as a fresh slot). Slots are touched only by the
  /// constructor and the dispatcher thread.
  struct Slot {
    util::Socket socket;  ///< invalid once the worker is gone
    /// Engaged only for children this pool spawns (and kept engaged while
    /// the slot waits to respawn one).
    std::optional<util::Subprocess> process;
    bool registered = false;
    util::Deadline handshake_deadline;  ///< register frame due by then
    std::string name;  ///< "pid 12345" or "127.0.0.1:43210", for logs
    bool partitioned = false;  ///< injected partition: reads blackholed
    std::size_t index = 0;     ///< stable salt for jittered backoff draws
    FrameReader reader;
    bool ready = false;
    std::shared_ptr<PendingUnit> current;
    util::Deadline unit_deadline;
    std::uint64_t last_heard_ms = 0;
    std::size_t consecutive_failures = 0;
    util::Deadline respawn_gate = util::Deadline::after_ms(0);

    bool owned() const { return process.has_value(); }
    bool schedulable() const {
      return socket.valid() && ready && !partitioned && current == nullptr;
    }
  };

  WorkerPoolConfig cfg;
  std::vector<std::string> command;
  std::string init_wire;
  std::string shutdown_wire;
  std::string local_backend;

  mutable std::mutex mutex;
  std::deque<std::shared_ptr<PendingUnit>> queue;
  std::vector<Slot> slots;
  util::ListenSocket listener;
  bool remote_mode = false;    ///< listening for remote registrations
  bool local_spawned = false;  ///< owned slots exist (or were tried)
  util::Deadline remote_gate;  ///< first-registration deadline
  std::optional<util::Deadline> lost_fleet_gate;  ///< all-remote-lost timer
  std::size_t next_slot_index = 0;
  bool degraded = false;
  std::string degraded_reason;
  bool dispatcher_running = false;
  bool interrupt_forwarded = false;
  std::size_t spawn_failure_streak = 0;
  WorkerPoolStats stat;

  std::atomic<bool> stop{false};
  /// Ends the dispatcher's poll() when units are queued or stop is set.
  util::WakePipe wake;
  std::thread dispatcher;
  UnitDataCache cache;  ///< degraded-mode dataset/split derivation

  // --- promise resolution (mutex held) ------------------------------------

  void resolve_result(PendingUnit& unit, CandidateResult result) {
    if (unit.resolved) return;
    unit.resolved = true;
    unit.promise.set_value(std::move(result));
  }

  void resolve_exception(PendingUnit& unit, std::exception_ptr error) {
    if (unit.resolved) return;
    unit.resolved = true;
    unit.promise.set_exception(std::move(error));
  }

  void requeue_front(const std::shared_ptr<PendingUnit>& unit) {
    // With straggler replicas a unit can fail on two slots in one tick;
    // never let it occupy two queue positions.
    if (std::find(queue.begin(), queue.end(), unit) == queue.end()) {
      queue.push_front(unit);
    }
  }

  /// Books one failed attempt: requeues (front, so the retry preempts new
  /// work) while the retry budget lasts, else quarantines through the PR-4
  /// failure path. The unit's RNG streams are untouched, so a successful
  /// retry is bit-identical to a never-failed attempt.
  void fail_attempt(const std::shared_ptr<PendingUnit>& unit,
                    const std::string& cause) {
    unit->causes.push_back(cause);
    unit->attempts += 1;
    const std::string key = unit->unit.key.to_string();
    if (unit->attempts > cfg.unit_retries) {
      stat.quarantined_units += 1;
      std::string all;
      for (const std::string& c : unit->causes) {
        if (!all.empty()) all += "; ";
        all += c;
      }
      util::log_error("worker pool: quarantining " + key + " after " +
                      std::to_string(unit->attempts) +
                      " failed attempts (" + all + ")");
      resolve_result(*unit,
                     quarantined_unit_result(*unit->config, unit->unit,
                                             unit->causes));
    } else {
      if (unit->attempts == 1) stat.retried_units += 1;
      util::log_warn("worker pool: retrying " + key + " (attempt " +
                     std::to_string(unit->attempts + 1) + "): " + cause);
      requeue_front(unit);
    }
  }

  /// Requeues a unit whose worker's TRANSPORT died (daemon crash, connection
  /// reset, heartbeat-silent partition). The unit itself is not implicated,
  /// so no retry attempt is charged — the same shipped streams go straight
  /// back to the queue front and a lost host never stalls the sweep.
  void orphan_requeue(const std::shared_ptr<PendingUnit>& unit,
                      const std::string& cause) {
    const std::string key = unit->unit.key.to_string();
    if (unit->replicas > 0) {
      util::log_info("worker pool: lost one replica of " + key + " (" +
                     cause + "); " + std::to_string(unit->replicas) +
                     " still in flight");
      return;
    }
    unit->orphanings += 1;
    if (unit->orphanings > kMaxOrphanRedispatch) {
      fail_attempt(unit, cause + " (after " +
                             std::to_string(unit->orphanings - 1) +
                             " uncharged re-dispatches)");
      return;
    }
    stat.steals += 1;
    util::log_warn("worker pool: re-dispatching orphaned " + key + " (" +
                   cause + "); no retry attempt charged");
    requeue_front(unit);
  }

  // --- worker lifecycle (mutex held) ---------------------------------------

  /// Books one more consecutive failure of the slot and gates its respawn
  /// behind the jittered backoff. Returns the wait in ms.
  std::uint64_t arm_backoff(Slot& slot) {
    slot.consecutive_failures += 1;
    const std::uint64_t wait = backoff_with_jitter_ms(
        cfg.backoff_initial_ms, cfg.backoff_max_ms, slot.consecutive_failures,
        cfg.backoff_jitter_seed, slot.index);
    slot.respawn_gate = util::Deadline::after_ms(wait);
    return wait;
  }

  /// Every worker socket enters here: non-blocking for the dispatcher's
  /// poll loop, a fresh session, and one handshake deadline to register.
  void open_slot(Slot& slot, util::Socket socket, std::string name) {
    socket.set_nonblocking();
    slot.socket = std::move(socket);
    slot.name = std::move(name);
    slot.registered = false;
    slot.ready = false;
    slot.partitioned = false;
    slot.reader = FrameReader{};
    slot.handshake_deadline =
        util::Deadline::after_ms(cfg.handshake_timeout_ms);
    slot.last_heard_ms = util::monotonic_now_ms();
  }

  /// Spawns the child of an owned slot. Returns false (with the slot left
  /// dead and its backoff gate armed) on failure.
  bool spawn_slot(Slot& slot) {
    try {
      *slot.process = util::Subprocess::spawn(command, cfg.worker_env);
    } catch (const std::exception& error) {
      const std::uint64_t wait = arm_backoff(slot);
      spawn_failure_streak += 1;
      util::log_warn(std::string{"worker pool: spawn failed: "} +
                     error.what() + " (backoff " + std::to_string(wait) +
                     " ms)");
      return false;
    }
    open_slot(slot, std::move(slot.process->socket()),
              "pid " + std::to_string(slot.process->pid()));
    spawn_failure_streak = 0;
    return true;
  }

  /// Adds cfg.workers owned slots and spawns their children. Returns how
  /// many came up; the dispatcher keeps retrying the rest with backoff.
  std::size_t spawn_local_locked() {
    local_spawned = true;
    std::size_t live = 0;
    for (std::size_t i = 0; i < cfg.workers; ++i) {
      Slot& slot = slots.emplace_back();
      slot.process.emplace();
      slot.index = next_slot_index++;
      if (spawn_slot(slot)) live += 1;
    }
    return live;
  }

  /// Releases the slot's in-flight unit. Returns it unless it is already
  /// resolved (a straggler twin won, or it was never there).
  std::shared_ptr<PendingUnit> detach_unit(Slot& slot) {
    std::shared_ptr<PendingUnit> unit = std::move(slot.current);
    if (unit == nullptr) return nullptr;
    if (unit->replicas > 0) unit->replicas -= 1;
    return unit->resolved ? nullptr : unit;
  }

  /// Tears down a slot whose worker is done for. Ownership decides what the
  /// in-flight unit pays: an owned child's death charges a retry attempt
  /// (the process running the computation died), while a lost connection
  /// says nothing about the unit, which is re-dispatched uncharged.
  void retire_slot(Slot& slot, std::string cause, bool kill) {
    if (slot.socket.valid()) {
      slot.socket.close();
      std::string ending;
      if (slot.owned()) {
        if (kill) slot.process->kill_hard();
        ending = "worker " + slot.process->wait().to_string();
      } else {
        ending = "connection to " + slot.name + " closed";
        (slot.registered ? stat.remote_lost : stat.handshake_rejects) += 1;
      }
      if (cause.empty()) cause = ending;
      if (!slot.registered) {
        util::log_warn("worker pool: dropping unregistered worker " +
                       slot.name + " (" + cause + ")");
      }
    }
    if (std::shared_ptr<PendingUnit> unit = detach_unit(slot)) {
      if (slot.owned()) {
        fail_attempt(unit, cause);
      } else {
        orphan_requeue(unit, cause);
      }
    }
    arm_backoff(slot);
  }

  /// Retires a slot whose unit is itself implicated — a deadline overrun or
  /// corrupt output — so the unit is charged an attempt on any worker.
  void fail_slot(Slot& slot, const std::string& cause) {
    if (std::shared_ptr<PendingUnit> unit = detach_unit(slot)) {
      fail_attempt(unit, cause);
    }
    retire_slot(slot, cause, /*kill=*/true);
  }

  /// Asks every worker to end its session: a `shutdown` frame (a worker
  /// finishes its in-flight unit first, and a daemon exits instead of
  /// reconnecting), then a half-close. Returns the live count.
  std::size_t stop_workers_locked() {
    std::size_t live = 0;
    for (Slot& slot : slots) {
      if (!slot.socket.valid()) continue;
      (void)slot.socket.write_all(shutdown_wire);
      slot.socket.shutdown_write();
      ++live;
    }
    return live;
  }

  void enter_degraded(const std::string& reason) {
    degraded = true;
    degraded_reason = reason;
    util::log_error("worker pool: degrading to in-process execution: " +
                    reason);
  }

  // --- dispatcher phases ----------------------------------------------------

  /// Forwards the interrupt to live workers once and fails every pending
  /// unit with util::Interrupted, so evaluate() unwinds to the search loop's
  /// own interrupt poll (the checkpoint holds only committed units, hence a
  /// resume retrains this window identically).
  void handle_interrupt_locked() {
    if (!util::interrupt_requested()) return;
    if (!interrupt_forwarded) {
      interrupt_forwarded = true;
      util::log_warn("worker pool: interrupt — forwarded stop to " +
                     std::to_string(stop_workers_locked()) + " worker(s)");
    }
    const auto interrupted = std::make_exception_ptr(util::Interrupted{});
    for (const std::shared_ptr<PendingUnit>& unit : queue) {
      resolve_exception(*unit, interrupted);
    }
    queue.clear();
    for (Slot& slot : slots) {
      if (slot.current != nullptr) {
        resolve_exception(*slot.current, interrupted);
        slot.current.reset();
      }
    }
  }

#if defined(__unix__) || defined(__APPLE__)
  /// Drains the listener backlog (bounded per tick) into unregistered
  /// slots.
  void accept_remote_locked() {
    if (!listener.valid()) return;
    for (int i = 0; i < 4; ++i) {
      pollfd pfd{listener.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 0) <= 0 || (pfd.revents & POLLIN) == 0) return;
      std::optional<util::Socket> conn =
          listener.accept(util::Deadline::after_ms(1));
      if (!conn.has_value()) return;
      std::string peer = peer_of(*conn);
      Slot& slot = slots.emplace_back();
      slot.index = next_slot_index++;
      open_slot(slot, std::move(*conn), std::move(peer));
    }
  }
#else
  void accept_remote_locked() {}
#endif

  /// Validates a slot's first frame, which must be `register`, and answers
  /// with init. Returns why the worker must be dropped ("" on success).
  std::string register_locked(Slot& slot, const util::Json& frame) {
    WorkerRegistration reg;
    try {
      reg = registration_from_json(frame);
    } catch (const ProtocolError& error) {
      return error.what();
    }
    if (reg.version != kWorkerProtocolVersion) {
      util::Json reply = util::Json::object();
      reply["type"] = "error";
      reply["message"] = "protocol version mismatch: supervisor speaks " +
                         std::to_string(kWorkerProtocolVersion) +
                         ", worker speaks " + std::to_string(reg.version);
      (void)slot.socket.write_all(frame_wire(reply.dump()));
      return "protocol version " + std::to_string(reg.version);
    }
    if (reg.backend != local_backend) {
      // Production SIMD backends are bit-identical by contract (DESIGN.md
      // §14); the reference backend is only ~1e-12 close, so a mixed fleet
      // involving it can lose byte-identity with a local run.
      const std::string note = "worker pool: worker backend '" + reg.backend +
                               "' differs from supervisor backend '" +
                               local_backend + "'";
      if (reg.backend == "reference" || local_backend == "reference") {
        util::log_warn(note +
                       " — reference arithmetic is not bit-identical; sweep "
                       "bytes may differ from a single-host run");
      } else {
        util::log_info(note + " (production backends are bit-identical)");
      }
    }
    if (!slot.socket.write_all(init_wire)) {
      return "vanished before the init frame";
    }
    slot.registered = true;
    if (!slot.owned()) {
      stat.remote_registered += 1;
      util::log_info("worker pool: registered remote worker " + slot.name +
                     " (pid " + std::to_string(reg.pid) + ", slot " +
                     std::to_string(reg.slot + 1) + "/" +
                     std::to_string(reg.slots) + ", backend " + reg.backend +
                     ")");
    }
    return "";
  }

  /// Accepted connections are not respawned in place — the daemon
  /// reconnects and registers afresh — so dead ones are simply removed.
  void reap_dead_remote_locked() {
    slots.erase(std::remove_if(slots.begin(), slots.end(),
                               [](const Slot& slot) {
                                 return !slot.owned() && !slot.socket.valid();
                               }),
                slots.end());
  }

  /// The degradation chain of distributed mode: if no remote worker
  /// registers within the handshake deadline — or a once-live fleet is
  /// entirely lost with work pending and stays gone for another deadline —
  /// local workers take over. The listener stays open either way, so late
  /// or reconnecting daemons still add capacity.
  void maybe_fallback_locked() {
    if (!remote_mode || local_spawned || degraded) return;
    if (!slots.empty()) {
      lost_fleet_gate.reset();
      return;
    }
    if (stat.remote_registered == 0) {
      if (!remote_gate.expired()) return;
      util::log_warn("worker pool: no remote workers registered within " +
                     std::to_string(cfg.handshake_timeout_ms) +
                     " ms; falling back to local workers");
    } else {
      if (queue.empty()) return;
      if (!lost_fleet_gate.has_value()) {
        lost_fleet_gate = util::Deadline::after_ms(cfg.handshake_timeout_ms);
        return;
      }
      if (!lost_fleet_gate->expired()) return;
      util::log_warn("worker pool: all remote workers lost for " +
                     std::to_string(cfg.handshake_timeout_ms) +
                     " ms with work pending; falling back to local workers");
    }
    if (command.empty()) {
      local_spawned = true;
      enter_degraded("no remote workers and subprocess spawning is "
                     "unavailable on this platform");
      return;
    }
    const std::size_t live = spawn_local_locked();
    if (live == 0) {
      // respawn_slots_locked keeps retrying with backoff and degrades the
      // pool if nothing ever comes up.
      util::log_warn("worker pool: local fallback spawn failed; retrying");
    } else {
      util::log_info("worker pool: " + std::to_string(live) +
                     " local worker(s) spawned as fallback");
    }
  }

  void respawn_slots_locked() {
    for (Slot& slot : slots) {
      if (!slot.owned() || slot.socket.valid()) continue;
      if (!slot.respawn_gate.expired()) continue;
      if (spawn_slot(slot)) {
        stat.restarts += 1;
      } else if (spawn_failure_streak >= 2 * slots.size() &&
                 std::none_of(slots.begin(), slots.end(), [](const Slot& s) {
                   return s.socket.valid();
                 })) {
        // Every slot has failed to come (back) up repeatedly and nothing is
        // running: give up on processes, keep the study going in-process.
        enter_degraded("cannot spawn workers (" +
                       std::to_string(spawn_failure_streak) +
                       " consecutive failures)");
        return;
      }
    }
  }

  /// Hands `unit` to an idle slot. Returns false — slot retired, unit not
  /// charged, since it never reached the worker — when the write fails.
  bool send_unit(Slot& slot, std::shared_ptr<PendingUnit> unit) {
    if (!slot.socket.write_all(unit->wire)) {
      retire_slot(slot, "", /*kill=*/true);
      return false;
    }
    unit->replicas += 1;
    slot.current = std::move(unit);
    slot.unit_deadline = cfg.unit_timeout_ms > 0
                             ? util::Deadline::after_ms(cfg.unit_timeout_ms)
                             : util::Deadline::never();
    slot.last_heard_ms = util::monotonic_now_ms();
    return true;
  }

  void dispatch_locked() {
    for (Slot& slot : slots) {
      // Units resolved while queued (e.g. quarantined through a replica's
      // failure chain) are dropped, not dispatched.
      while (!queue.empty() && queue.front()->resolved) queue.pop_front();
      if (queue.empty()) return;
      if (!slot.schedulable()) continue;
      std::shared_ptr<PendingUnit> unit = queue.front();
      queue.pop_front();
      unit->first_dispatch_ms = util::monotonic_now_ms();
      if (!send_unit(slot, unit)) queue.push_front(std::move(unit));
    }
  }

  /// Straggler work-stealing: when the queue is dry, an idle worker
  /// duplicates the oldest single-replica unit that has been in flight
  /// longer than steal_after_ms. Both replicas compute the same
  /// deterministic function of the same shipped streams, and resolution is
  /// idempotent — first result wins, bytes unchanged.
  void steal_stragglers_locked() {
    if (cfg.steal_after_ms == 0 || !queue.empty()) return;
    const std::uint64_t now = util::monotonic_now_ms();
    for (Slot& idle : slots) {
      if (!idle.schedulable()) continue;
      Slot* victim = nullptr;
      for (Slot& busy : slots) {
        if (busy.current == nullptr || busy.current->resolved) continue;
        if (busy.current->replicas >= 2) continue;
        if (now - busy.current->first_dispatch_ms < cfg.steal_after_ms) {
          continue;
        }
        if (victim == nullptr || busy.current->first_dispatch_ms <
                                     victim->current->first_dispatch_ms) {
          victim = &busy;
        }
      }
      if (victim == nullptr) return;
      const std::shared_ptr<PendingUnit> unit = victim->current;
      if (!send_unit(idle, unit)) continue;
      stat.steals += 1;
      util::log_warn("worker pool: stealing straggler " +
                     unit->unit.key.to_string() + " from " + victim->name +
                     " onto " + idle.name + " (in flight " +
                     std::to_string(now - unit->first_dispatch_ms) + " ms)");
    }
  }

  /// Consumes every complete frame a worker has produced. Returns false when
  /// the worker was retired (corrupt stream, rejected registration).
  bool process_frames_locked(Slot& slot) {
    while (true) {
      std::optional<std::string> payload;
      try {
        payload = slot.reader.next();
      } catch (const ProtocolError& error) {
        fail_slot(slot, std::string{"corrupt frame: "} + error.what());
        return false;
      }
      if (!payload.has_value()) return true;

      util::Json frame;
      std::string type;
      try {
        frame = util::Json::parse(*payload);
        type = frame.at("type").as_string();
      } catch (const std::exception& error) {
        fail_slot(slot, std::string{"corrupt frame: "} + error.what());
        return false;
      }

      slot.last_heard_ms = util::monotonic_now_ms();
      if (!slot.registered) {
        const std::string rejection = register_locked(slot, frame);
        if (!rejection.empty()) {
          retire_slot(slot, "registration rejected: " + rejection,
                      /*kill=*/true);
          return false;
        }
      } else if (type == "ready") {
        slot.ready = true;
      } else if (type == "heartbeat") {
        // liveness timestamp already updated
      } else if (type == "result") {
        if (slot.current == nullptr) {
          util::log_warn("worker pool: stray result frame ignored");
          continue;
        }
        CandidateResult result;
        try {
          result = candidate_result_from_json(frame.at("result"));
        } catch (const std::exception& error) {
          fail_slot(slot, std::string{"corrupt result: "} + error.what());
          return false;
        }
        // First result wins: with straggler stealing a twin may already
        // have resolved this unit, in which case it is not handed back.
        if (std::shared_ptr<PendingUnit> unit = detach_unit(slot)) {
          resolve_result(*unit, std::move(result));
        }
        slot.consecutive_failures = 0;
      } else if (type == "error") {
        // The worker survived but the unit failed cleanly in-process.
        std::string message = "unknown error";
        if (frame.contains("message")) {
          message = frame.at("message").as_string();
        }
        if (std::shared_ptr<PendingUnit> unit = detach_unit(slot)) {
          fail_attempt(unit, "worker error: " + message);
        }
      } else {
        fail_slot(slot, "unknown frame type '" + type + "'");
        return false;
      }
    }
  }

#if defined(__unix__) || defined(__APPLE__)
  void read_workers_locked() {
    char buffer[8192];
    for (Slot& slot : slots) {
      if (!slot.socket.valid()) continue;
      if (!slot.owned() && (!slot.registered || slot.current != nullptr)) {
        // Connection faults (`conn=reset/partition/slow`) hit accepted
        // connections during the handshake or mid-unit.
        const std::string where =
            slot.registered ? "unit " + slot.current->unit.key.to_string()
                            : "handshake";
        switch (util::FaultInjector::instance().on_connection(where)) {
          case util::ConnFaultMode::Reset:
            retire_slot(slot, "injected connection reset", /*kill=*/true);
            continue;
          case util::ConnFaultMode::Slow:
            // Mid-unit, frames arrive a tick late. A slow handshake is not
            // read again: its deadline must drop it.
            if (slot.registered) continue;
            [[fallthrough]];
          case util::ConnFaultMode::Partition:
            slot.partitioned = true;
            break;
          default:
            break;
        }
      }
      // A partitioned connection blackholes reads; the heartbeat reaper (or
      // before registration, the handshake deadline) retires it, and the
      // daemon's reconnect is the heal.
      if (slot.partitioned) continue;
      bool eof = false;
      while (true) {
        const ssize_t n = ::read(slot.socket.fd(), buffer, sizeof(buffer));
        if (n > 0) {
          slot.reader.feed(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof = true;  // unexpected read error (e.g. ECONNRESET): worker gone
        break;
      }
      if (!process_frames_locked(slot)) continue;  // slot already retired
      if (eof) retire_slot(slot, "", /*kill=*/false);
    }
  }
#else
  void read_workers_locked() {}
#endif

  void check_liveness_locked() {
    const std::uint64_t now = util::monotonic_now_ms();
    for (Slot& slot : slots) {
      if (!slot.socket.valid()) continue;
      if (!slot.registered) {
        // One pre-registration rule for every worker: no register frame
        // by the handshake deadline, no slot.
        if (slot.handshake_deadline.expired()) {
          retire_slot(slot,
                      "no register frame within " +
                          std::to_string(cfg.handshake_timeout_ms) + " ms",
                      /*kill=*/true);
        }
        continue;
      }
      const bool busy = slot.current != nullptr;
      if (busy && slot.unit_deadline.expired()) {
        // The unit itself is slow — charge the attempt on any worker.
        fail_slot(slot, "deadline exceeded after " +
                            std::to_string(cfg.unit_timeout_ms) + " ms");
        continue;
      }
      // An idle ready worker is legitimately silent; a busy one must tick,
      // and a registered one must answer the init frame. Silence on an
      // accepted connection means the HOST or network is gone, not the
      // unit, so retire_slot orphans its unit.
      if ((busy || !slot.ready) &&
          now - slot.last_heard_ms > cfg.heartbeat_timeout_ms) {
        retire_slot(slot,
                    std::string{busy ? "no heartbeat for "
                                     : "worker failed to initialize within "} +
                        std::to_string(cfg.heartbeat_timeout_ms) + " ms",
                    /*kill=*/true);
      }
    }
  }

#if defined(__unix__) || defined(__APPLE__)
  void wait_for_io() {
    std::vector<pollfd> fds{pollfd{wake.read_fd(), POLLIN, 0}};
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const Slot& slot : slots) {
        // Partitioned fds are excluded: their buffered bytes would turn
        // poll() into a busy loop while reads are withheld.
        if (!slot.socket.valid() || slot.partitioned) continue;
        fds.push_back(pollfd{slot.socket.fd(), POLLIN, 0});
      }
      if (listener.valid()) {
        fds.push_back(pollfd{listener.fd(), POLLIN, 0});
      }
    }
    // The timeout is only the tick for heartbeat, deadline, respawn-gate
    // and steal checks; state changes arrive as fd events.
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    wake.drain();
  }
#else
  void wait_for_io() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
#endif

  /// In-process execution of a batch (degraded mode), same arithmetic as a
  /// worker: evaluate_unit on the shipped streams.
  void run_inline(std::vector<std::shared_ptr<PendingUnit>>& units) {
    util::parallel_for(
        0, units.size(), std::max<std::size_t>(1, cfg.workers),
        [&](std::size_t i) {
          std::exception_ptr error;
          CandidateResult result;
          try {
            result = evaluate_unit(*units[i]->config, units[i]->unit, cache);
          } catch (...) {
            error = std::current_exception();
          }
          std::lock_guard<std::mutex> lock(mutex);
          if (error != nullptr) {
            resolve_exception(*units[i], error);
          } else {
            resolve_result(*units[i], std::move(result));
          }
        });
  }

  void dispatcher_loop() {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::shared_ptr<PendingUnit>> inline_batch;
      {
        std::lock_guard<std::mutex> lock(mutex);
        handle_interrupt_locked();
        if (degraded) {
          inline_batch.assign(queue.begin(), queue.end());
          queue.clear();
        } else {
          accept_remote_locked();
          maybe_fallback_locked();
          respawn_slots_locked();
          dispatch_locked();
          steal_stragglers_locked();
        }
      }
      if (!inline_batch.empty()) {
        run_inline(inline_batch);
        continue;
      }
      wait_for_io();
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!degraded) {
          read_workers_locked();
          check_liveness_locked();
          reap_dead_remote_locked();
        }
      }
    }
  }
};

WorkerPool::WorkerPool(WorkerPoolConfig pool_config)
    : impl_(std::make_unique<Impl>()) {
  // A worker dying mid-write must come back as EPIPE from write_all, never
  // as a supervisor-killing signal (spawn() also installs this, but the
  // guard must exist even when the pool degrades before the first spawn).
  util::install_sigpipe_guard();
  impl_->cfg = pool_config;
  impl_->cfg.workers = std::max<std::size_t>(1, impl_->cfg.workers);
  impl_->local_backend = util::simd::active_backend().name;

  bool local_available = true;
  if (pool_config.worker_command.empty()) {
    const std::string self = util::current_executable_path();
    if (!util::subprocess_supported() || self.empty()) {
      local_available = false;
    } else {
      impl_->command = {self, "--worker-mode"};
    }
  } else {
    impl_->command = pool_config.worker_command;
  }

  util::Json init = util::Json::object();
  init["type"] = "init";
  init["version"] = kWorkerProtocolVersion;
  init["heartbeat_interval_ms"] = impl_->cfg.heartbeat_interval_ms;
  impl_->init_wire = frame_wire(init.dump());
  util::Json shutdown = util::Json::object();
  shutdown["type"] = "shutdown";
  impl_->shutdown_wire = frame_wire(shutdown.dump());

  if (impl_->cfg.remote_workers > 0) {
    if (util::sockets_supported()) {
      try {
        impl_->listener = util::ListenSocket::listen_tcp(
            impl_->cfg.listen_host, impl_->cfg.listen_port);
        impl_->remote_mode = true;
        impl_->remote_gate =
            util::Deadline::after_ms(impl_->cfg.handshake_timeout_ms);
        util::log_info(
            "worker pool: listening on " + impl_->cfg.listen_host + ":" +
            std::to_string(impl_->listener.port()) + " for " +
            std::to_string(impl_->cfg.remote_workers) +
            " remote worker(s), handshake deadline " +
            std::to_string(impl_->cfg.handshake_timeout_ms) + " ms");
      } catch (const std::exception& error) {
        util::log_warn(
            std::string{"worker pool: cannot listen for remote workers: "} +
            error.what() + "; using local workers");
      }
    } else {
      util::log_warn(
          "worker pool: TCP sockets unavailable on this platform; using "
          "local workers");
    }
  }

  if (!impl_->remote_mode) {
    if (!local_available) {
      impl_->enter_degraded(
          "subprocess spawning is unavailable on this platform");
      return;
    }
    // Spawn validation happens here, synchronously: if no worker can be
    // created (missing binary, fork failure, exec failure via the status
    // pipe), the pool degrades before any unit is submitted. Partial
    // failures are not fatal: the dispatcher retries them with backoff.
    if (impl_->spawn_local_locked() == 0) {
      impl_->enter_degraded("cannot spawn worker process (" +
                            impl_->command[0] + ")");
      impl_->slots.clear();
      return;
    }
    util::log_info("worker pool: " + std::to_string(impl_->cfg.workers) +
                   " worker(s), command " + impl_->command[0]);
  }
  impl_->dispatcher_running = true;
  impl_->dispatcher = std::thread([this] { impl_->dispatcher_loop(); });
}

WorkerPool::~WorkerPool() {
  if (impl_ == nullptr) return;
  impl_->stop.store(true, std::memory_order_relaxed);
  impl_->wake.notify();
  if (impl_->dispatcher.joinable()) impl_->dispatcher.join();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto destroyed = std::make_exception_ptr(
        std::runtime_error("worker pool destroyed with units pending"));
    for (const auto& unit : impl_->queue) {
      impl_->resolve_exception(*unit, destroyed);
    }
    impl_->queue.clear();
    for (Impl::Slot& slot : impl_->slots) {
      if (slot.current != nullptr) {
        impl_->resolve_exception(*slot.current, destroyed);
        slot.current.reset();
      }
    }
    // Owned children that do not exit on the shutdown frame are SIGKILLed
    // and reaped by the Subprocess destructor.
    impl_->stop_workers_locked();
    impl_->listener.close();
  }
}

std::vector<CandidateResult> WorkerPool::evaluate(
    const SweepConfig& config, std::vector<WorkUnit> units) {
  util::throw_if_interrupted();
  if (units.empty()) return {};

  // Inside a worker the only parallelism is a unit's runs_per_model.
  auto shipped = std::make_shared<SweepConfig>(config);
  shipped->search.threads =
      std::max<std::size_t>(1, impl_->cfg.worker_threads);
  shipped->search.lookahead = 0;
  util::Json frame = util::Json::object();
  frame["type"] = "unit";
  frame["config"] = sweep_config_to_json(*shipped);

  bool inline_now = false;
  std::vector<std::shared_ptr<Impl::PendingUnit>> pending;
  std::vector<std::future<CandidateResult>> futures;
  pending.reserve(units.size());
  futures.reserve(units.size());
  for (WorkUnit& unit : units) {
    auto p = std::make_shared<Impl::PendingUnit>();
    frame["unit"] = work_unit_to_json(unit);
    p->wire = frame_wire(frame.dump());
    p->unit = std::move(unit);
    p->config = shipped;
    futures.push_back(p->promise.get_future());
    pending.push_back(std::move(p));
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    inline_now = impl_->degraded && !impl_->dispatcher_running;
    if (!inline_now) {
      for (const auto& p : pending) impl_->queue.push_back(p);
    }
  }
  // A pool that never came up has no dispatcher; evaluate on the caller.
  if (inline_now) {
    impl_->run_inline(pending);
  } else {
    impl_->wake.notify();
  }

  std::vector<CandidateResult> results;
  results.reserve(futures.size());
  for (std::future<CandidateResult>& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

bool WorkerPool::degraded() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->degraded;
}

std::string WorkerPool::degraded_reason() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->degraded_reason;
}

std::size_t WorkerPool::worker_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const std::size_t target =
      impl_->remote_mode ? impl_->cfg.remote_workers : impl_->cfg.workers;
  const auto counted = static_cast<std::size_t>(std::count_if(
      impl_->slots.begin(), impl_->slots.end(),
      [](const Impl::Slot& slot) { return slot.owned() || slot.registered; }));
  return std::max<std::size_t>(1, std::max(counted, target));
}

std::uint16_t WorkerPool::listen_port() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->listener.valid() ? impl_->listener.port() : 0;
}

WorkerPoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stat;
}

void add_worker_pool_options(util::Cli& cli,
                             const std::string& workers_help) {
  cli.add_int("workers", 0, workers_help);
  cli.add_double("unit-timeout", 0.0,
                 "Wall-clock budget per candidate evaluation in seconds "
                 "when using workers (0 = no deadline)");
  cli.add_int("worker-retries", 2,
              "Failed attempts allowed per unit beyond the first before it "
              "is quarantined (with workers)");
  cli.add_string("listen", "",
                 "Listen address host:port (port 0 = ephemeral, reported "
                 "when the pool starts) for qhdl_worker daemons");
  cli.add_int("workers-remote", 0,
              "Expected remote worker registrations; falls back to local "
              "--workers if none arrive within --handshake-timeout");
  cli.add_double("handshake-timeout", 5.0,
                 "Registration deadline in seconds (per connection, and for "
                 "the remote fleet before local fallback)");
  cli.add_double("steal-after", 0.0,
                 "Duplicate a unit onto an idle worker once it has been in "
                 "flight this many seconds (0 = off); results unchanged");
}

std::optional<WorkerPoolConfig> worker_pool_config_from_cli(
    const util::Cli& cli) {
  if (cli.get_int("workers") <= 0 && cli.get_int("workers-remote") <= 0) {
    return std::nullopt;
  }
  const auto ms = [&cli](const char* name) {
    return static_cast<std::uint64_t>(cli.get_double(name) * 1000.0);
  };
  WorkerPoolConfig config;
  if (cli.get_int("workers") > 0) {
    config.workers = static_cast<std::size_t>(cli.get_int("workers"));
  }
  config.unit_timeout_ms = ms("unit-timeout");
  config.unit_retries =
      static_cast<std::size_t>(std::max<long>(0, cli.get_int("worker-retries")));
  config.steal_after_ms = ms("steal-after");
  if (cli.get_int("workers-remote") > 0) {
    config.remote_workers =
        static_cast<std::size_t>(cli.get_int("workers-remote"));
    config.handshake_timeout_ms = ms("handshake-timeout");
    if (!cli.get_string("listen").empty() &&
        !parse_host_port(cli.get_string("listen"), &config.listen_host,
                         &config.listen_port)) {
      throw std::invalid_argument(
          "--listen requires host:port (e.g. --listen 0.0.0.0:7200)");
    }
  }
  return config;
}

std::unique_ptr<WorkerPool> start_worker_pool(const util::Cli& cli) {
  const std::optional<WorkerPoolConfig> config =
      worker_pool_config_from_cli(cli);
  if (!config.has_value()) return nullptr;
  auto pool = std::make_unique<WorkerPool>(*config);
  if (pool->listen_port() != 0) {
    std::printf("listening for qhdl_worker daemons on %s:%u\n",
                config->listen_host.c_str(), pool->listen_port());
  }
  if (pool->degraded()) {
    std::fprintf(stderr, "warning: worker pool degraded to in-process "
                 "execution: %s\n", pool->degraded_reason().c_str());
  }
  return pool;
}

std::string worker_pool_report(const WorkerPool& pool) {
  const WorkerPoolStats s = pool.stats();
  std::string report;
  if (s.restarts + s.retried_units + s.quarantined_units + s.steals +
          s.remote_lost + s.handshake_rejects >
      0) {
    report += "worker pool: " + std::to_string(s.restarts) +
              " restart(s), " + std::to_string(s.retried_units) +
              " retried unit(s), " + std::to_string(s.quarantined_units) +
              " quarantined unit(s), " + std::to_string(s.steals) +
              " stolen unit(s)\n";
  }
  if (s.remote_registered + s.remote_lost + s.handshake_rejects > 0) {
    report += "worker pool: " + std::to_string(s.remote_registered) +
              " remote registration(s), " + std::to_string(s.remote_lost) +
              " remote connection(s) lost, " +
              std::to_string(s.handshake_rejects) + " handshake reject(s)\n";
  }
  return report;
}

}  // namespace qhdl::search
