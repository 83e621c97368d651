#ifndef XORATOR_SERVER_SERVER_H_
#define XORATOR_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "ordb/database.h"
#include "server/net.h"
#include "server/protocol.h"

namespace xorator::server {

/// Server configuration. The defaults suit tests and the example binary;
/// production-shaped loads tune max_connections / worker_threads /
/// max_queue_depth together (connections bound the threads, engine slots
/// bound engine concurrency, the wait cap bounds the backlog under
/// overload).
struct ServerOptions {
  /// TCP port on 127.0.0.1 (0 = ephemeral; read the choice via port()).
  uint16_t port = 0;
  /// Admission cap on concurrent connections; excess connections get a
  /// fast kResourceExhausted + retry-after and are closed.
  size_t max_connections = 64;
  /// Engine slots: how many admitted statements may run against the
  /// Database at once (0 counts as 1). Each connection thread runs its own
  /// statement; one that finds every slot busy waits for a slot.
  size_t worker_threads = 4;
  /// Admission cap on statements waiting for an engine slot (running ones
  /// do not count); a statement that would wait beyond it gets
  /// kResourceExhausted + retry-after.
  size_t max_queue_depth = 128;
  /// How long Shutdown() lets in-flight statements drain before
  /// cancelling them.
  int64_t drain_timeout_millis = 5000;
  /// Retry-after hint attached to admission rejections (connection cap
  /// and wait cap).
  uint32_t retry_after_millis = 25;
  /// Per-frame I/O budget: reading a request payload after its header, and
  /// writing a response. A peer that stalls longer mid-frame is dropped.
  int64_t io_timeout_millis = 10'000;
};

/// Monotonic server counters, exposed through the STATS frame (prefixed
/// `server_`) and the server_stats() test hook. Snapshot semantics: one
/// coherent copy under the server lock.
struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Connections turned away at the connection cap.
  uint64_t connections_rejected = 0;
  uint64_t connections_closed = 0;
  uint64_t active_connections = 0;
  /// Statements that passed admission (and then ran or waited for a slot).
  uint64_t statements_admitted = 0;
  /// Statements rejected because max_queue_depth statements were already
  /// waiting for an engine slot.
  uint64_t statements_rejected_queue = 0;
  /// Mutations shed at admission because the engine was read-only/failed.
  uint64_t statements_shed_readonly = 0;
  /// Statements rejected because the server was draining.
  uint64_t statements_rejected_draining = 0;
  /// Admitted statements that completed OK / with an error status.
  uint64_t statements_ok = 0;
  uint64_t statements_error = 0;
  /// Admitted statements cancelled because their client disconnected.
  uint64_t cancelled_on_disconnect = 0;
  /// Frames that failed header or payload decode.
  uint64_t malformed_frames = 0;
  /// Current and high-water count of statements waiting for an engine
  /// slot.
  uint64_t queue_depth = 0;
  uint64_t peak_queue_depth = 0;
};

/// The xorator network front end (DESIGN.md section 17): a
/// thread-per-connection socket server speaking the server/protocol.h frame
/// protocol over the embedded Database. An acceptor thread admits
/// connections and watches in-flight statements; each connection thread
/// decodes its requests and runs its own statements, at most
/// worker_threads of them at once across the server.
///
/// Robustness contract:
///   * Admission control — connection count and the number of statements
///     waiting for an engine slot are both bounded; excess load is
///     rejected fast with a retryable kResourceExhausted carrying a
///     retry-after hint, so overload sheds in microseconds instead of
///     queuing into collapse.
///   * Deadline & budget propagation — frame fields become QueryOptions;
///     the deadline is measured from admission, so time spent waiting for
///     a slot counts against it, and a statement whose deadline expired
///     while it waited is answered kDeadlineExceeded without touching the
///     engine.
///   * Disconnect cancellation — every admitted statement runs under a
///     server-assigned QueryGuard id; the acceptor probes the socket of
///     every connection with a statement in flight once per tick and fires
///     Database::Cancel the moment the client goes away.
///   * Graceful degradation — mutations are shed at admission with the
///     health latch's own status (state, detail, retry-after) while the
///     engine is read-only; STATS advertises the degraded state.
///   * Drain-then-close shutdown — Shutdown() stops accepting, lets
///     in-flight statements finish for drain_timeout_millis, then cancels
///     the stragglers and joins every thread.
///
/// Locking: one xo::Mutex at rank kServer — above kStatement, per the
/// descending-acquire rule, because connection threads call into the
/// engine. The lock is never held across an engine call (Database::Cancel,
/// which only touches the engine's leaf guard registry, included) or a
/// socket call; a statement waiting for a slot sleeps on its connection's
/// xo::CondVar until a finishing statement hands the slot over.
///
/// Thread safety: Start/Shutdown/port/server_stats are safe from any
/// thread; Shutdown is idempotent.
class Server {
 public:
  /// Binds, listens, and starts the acceptor thread. `db` must outlive the
  /// returned server.
  [[nodiscard]] static Result<std::unique_ptr<Server>> Start(
      ordb::Database* db, const ServerOptions& options = {});

  /// Shuts down (drain-then-close) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral choice when options.port was 0).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Drain-then-close shutdown; see the class comment. Idempotent.
  void Shutdown() XO_EXCLUDES(mu_);

  /// Coherent snapshot of the admission/served counters (test hook; the
  /// same numbers ride the STATS frame prefixed `server_`).
  [[nodiscard]] ServerStats server_stats() const XO_EXCLUDES(mu_);

 private:
  /// One live client connection: the socket, the thread serving it, and
  /// the one statement it has in flight (waiting for a slot or running).
  /// The statement fields are guarded by the server lock: the connection
  /// thread sets and clears them, CANCEL frames, the disconnect watch and
  /// Shutdown flag them.
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> finished{false};

    /// Server-assigned guard id of the statement in flight (0 = none).
    uint64_t server_query_id = 0;
    /// Its client-chosen query_id (0 = none), named by CANCEL frames.
    uint64_t client_query_id = 0;
    /// CANCEL frame, disconnect or shutdown: a statement still waiting is
    /// answered kCancelled when it gets its slot, without running.
    bool cancel_requested = false;
    /// The client is gone: the statement finishes, nobody gets a response.
    bool abandoned = false;
    /// The statement waits for an engine slot. The statement handing over
    /// its slot clears the flag and signals slot_cv.
    bool waiting = false;
    xo::CondVar slot_cv;
  };

  Server(ordb::Database* db, const ServerOptions& options);

  /// Acceptor loop: admits or fast-rejects connections, reaps finished
  /// connection threads, and runs WatchStatements once per tick.
  void AcceptLoop() XO_EXCLUDES(mu_);

  /// Per-connection loop: frame parse, admission, execution, response.
  void ServeConnection(Connection* conn) XO_EXCLUDES(mu_);

  /// Handles one QUERY/EXECUTE frame on its connection thread: admission,
  /// slot wait, execution, response send.
  void HandleStatement(Connection* conn, FrameType type,
                       const QueryRequest& request) XO_EXCLUDES(mu_);

  /// Handles a CANCEL frame: cancels every in-flight statement carrying
  /// the client-chosen id.
  void HandleCancel(Connection* conn, const CancelRequest& request)
      XO_EXCLUDES(mu_);

  /// Handles a STATS frame: engine resilience rows + server counters.
  void HandleStats(Connection* conn) XO_EXCLUDES(mu_);

  /// One tick of the in-flight watch: flags statements whose client
  /// disconnected, then fires Database::Cancel at every statement with a
  /// cancel requested (each tick, so a cancel that beat the statement's
  /// guard registration still lands). Returns the statements in flight.
  /// Runs only on the acceptor, or on Shutdown after joining it.
  size_t WatchStatements() XO_EXCLUDES(mu_);

  /// Gives up the caller's engine slot: hands it to the statement that has
  /// waited longest, or frees it when none waits.
  void ReleaseSlot() XO_REQUIRES(mu_);

  /// Sends an encoded frame with the per-frame I/O deadline (best effort:
  /// a send failure just ends the connection).
  void SendFrame(Connection* conn, std::string_view frame);

  /// Sends an ERROR frame built from `status`.
  void SendError(Connection* conn, const Status& status);

  ordb::Database* const db_;
  const ServerOptions options_;
  uint16_t port_ = 0;
  Socket listener_;

  /// The server lock (rank kServer; see the class comment).
  mutable xo::Mutex mu_{xo::LockRank::kServer};

  /// Draining: no new statements, in-flight ones may finish.
  bool draining_ XO_GUARDED_BY(mu_) = false;
  /// Engine slots taken by running statements. A freed slot goes straight
  /// to a waiter, so statements wait only while every slot is busy.
  size_t busy_slots_ XO_GUARDED_BY(mu_) = 0;
  uint64_t next_server_query_id_ XO_GUARDED_BY(mu_) = 1;
  /// stats_.queue_depth doubles as the count of slot waiters.
  ServerStats stats_ XO_GUARDED_BY(mu_);

  /// Every live connection: the registry CANCEL frames, the disconnect
  /// watch and Shutdown search. Only the acceptor (and Shutdown, after
  /// joining it) adds or destroys entries.
  std::vector<std::unique_ptr<Connection>> connections_ XO_GUARDED_BY(mu_);
  std::thread acceptor_;
  /// Set once Shutdown() has fully run (threads joined).
  bool shut_down_ XO_GUARDED_BY(mu_) = false;
};

}  // namespace xorator::server

#endif  // XORATOR_SERVER_SERVER_H_
