#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "ordb/health.h"
#include "ordb/sql.h"

namespace xorator::server {

namespace {

/// The acceptor's tick: how often it wakes to check for shutdown, reap
/// finished connection threads and probe the sockets of connections with a
/// statement in flight for a client disconnect. Shutdown's drain loop runs
/// the same watch at the same pace.
constexpr int64_t kTickMillis = 20;

/// Renders a QueryResult into the wire shape (values become their display
/// strings; the examples and tests want text anyway, and it keeps the
/// protocol free of the engine's type system).
ResultPayload RenderResult(const ordb::QueryResult& result) {
  ResultPayload payload;
  payload.columns = result.columns;
  payload.rows.reserve(result.rows.size());
  for (const ordb::Tuple& row : result.rows) {
    std::vector<std::string> rendered;
    rendered.reserve(row.size());
    for (const ordb::Value& value : row) {
      rendered.push_back(value.ToString());
    }
    payload.rows.push_back(std::move(rendered));
  }
  payload.report = result.report.ToString();
  return payload;
}

/// Encodes the frame for `result`, downgrading an over-cap result to a
/// clean error frame.
std::string EncodeResultOrError(const ResultPayload& result) {
  Result<std::string> frame = EncodeResult(result);
  if (frame.ok()) return std::move(frame).value();
  return EncodeError(ErrorFromStatus(frame.status()));
}

/// Result of running one statement: the encoded response frame plus
/// whether the statement succeeded (for the ok/error counters).
struct Outcome {
  std::string frame;
  bool ok = false;
};

/// Runs one admitted statement that holds an engine slot against `db` and
/// encodes the response.
Outcome RunStatement(ordb::Database* db, FrameType type,
                     const QueryRequest& request, uint64_t server_query_id,
                     std::chrono::steady_clock::time_point admitted_at) {
  // The deadline is measured from admission: the slot wait counts against
  // the budget, and a statement that died waiting is answered without
  // touching the engine — an overloaded server drains its backlog at
  // rejection speed, not service speed.
  ordb::QueryOptions query_options;
  query_options.max_memory_bytes = request.max_memory_bytes;
  query_options.query_id = server_query_id;
  query_options.skip_quarantined = request.skip_quarantined;
  if (request.deadline_millis > 0) {
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - admitted_at)
                            .count();
    if (waited >= static_cast<int64_t>(request.deadline_millis)) {
      return {EncodeError(ErrorFromStatus(Status::DeadlineExceeded(
                  "deadline of " + std::to_string(request.deadline_millis) +
                  "ms expired after " + std::to_string(waited) +
                  "ms in the admission queue"))),
              false};
    }
    query_options.deadline_millis =
        request.deadline_millis - static_cast<uint64_t>(waited);
  }

  if (type == FrameType::kExecute) {
    Status executed = db->Execute(request.sql, query_options);
    if (!executed.ok()) {
      return {EncodeError(ErrorFromStatus(executed)), false};
    }
    return {EncodeResultOrError(ResultPayload{}), true};
  }
  Result<ordb::QueryResult> result = db->Query(request.sql, query_options);
  if (!result.ok()) {
    return {EncodeError(ErrorFromStatus(result.status())), false};
  }
  return {EncodeResultOrError(RenderResult(result.value())), true};
}

}  // namespace

Server::Server(ordb::Database* db, const ServerOptions& options)
    : db_(db), options_(options) {}

Result<std::unique_ptr<Server>> Server::Start(ordb::Database* db,
                                              const ServerOptions& options) {
  // The backlog is sized past max_connections so a burst reaches the
  // acceptor (which rejects it fast with a proper error frame) instead of
  // timing out in the kernel's SYN queue.
  std::unique_ptr<Server> server(new Server(db, options));
  ASSIGN_OR_RETURN(
      server->listener_,
      Listen(options.port, static_cast<int>(options.max_connections) + 16));
  ASSIGN_OR_RETURN(server->port_, BoundPort(server->listener_));
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::~Server() { Shutdown(); }

void Server::AcceptLoop() {
  for (;;) {
    // Reap connection threads that finished on their own, so a long-lived
    // server does not accumulate dead std::thread objects. Joins happen
    // outside the lock.
    std::vector<std::unique_ptr<Connection>> finished;
    {
      xo::MutexLock lock(&mu_);
      if (draining_) break;
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->finished.load(std::memory_order_acquire)) {
          finished.push_back(std::move(*it));
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const std::unique_ptr<Connection>& conn : finished) {
      conn->thread.join();
    }
    WatchStatements();

    Result<Socket> accepted = Accept(listener_, Deadline::After(kTickMillis));
    if (!accepted.ok()) {
      // The deadline is the idle tick; any other error (the listener going
      // away under Shutdown) is re-checked against draining_ at the top.
      if (accepted.status().code() != StatusCode::kDeadlineExceeded) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kTickMillis));
      }
      continue;
    }
    Socket socket = std::move(accepted).value();

    // Admission and thread spawn in one critical section: the thread
    // handle is only ever written here and joined by a thread that
    // acquired mu_ afterwards, so the handle itself is race-free.
    bool admit = false;
    {
      xo::MutexLock lock(&mu_);
      if (!draining_ && stats_.active_connections < options_.max_connections) {
        admit = true;
        ++stats_.connections_accepted;
        ++stats_.active_connections;
        auto conn = std::make_unique<Connection>();
        conn->socket = std::move(socket);
        Connection* raw = conn.get();
        raw->thread = std::thread([this, raw] {
          ServeConnection(raw);
          raw->finished.store(true, std::memory_order_release);
        });
        connections_.push_back(std::move(conn));
      } else {
        ++stats_.connections_rejected;
      }
    }
    if (!admit) {
      // Fast rejection: one small error frame, then close. The short
      // deadline keeps a peer that will not even read a 40-byte frame from
      // stalling the acceptor.
      const std::string frame = EncodeError(ErrorFromStatus(
          Status::ResourceExhausted("server connection limit reached")
              .WithRetryAfter(options_.retry_after_millis)));
      XO_DISCARD_STATUS(WriteFull(socket, frame, Deadline::After(100)),
                        "rejected peer may already be gone");
      continue;
    }
  }
}

void Server::ServeConnection(Connection* conn) {
  for (;;) {
    std::string header_bytes;
    // Idle reads wait indefinitely: Shutdown() wakes them by shutting the
    // socket down, which surfaces here as a failed read.
    Status read = ReadFull(conn->socket, &header_bytes, kFrameHeaderBytes,
                           Deadline::Infinite());
    if (!read.ok()) {
      // kUnavailable = clean close between frames; anything else is a
      // truncated or failed header read.
      if (read.code() != StatusCode::kUnavailable) {
        xo::MutexLock lock(&mu_);
        ++stats_.malformed_frames;
      }
      break;
    }
    Result<FrameHeader> header = DecodeFrameHeader(header_bytes);
    if (!header.ok()) {
      // A desynced byte stream cannot be re-synced; answer with the parse
      // error and close.
      {
        xo::MutexLock lock(&mu_);
        ++stats_.malformed_frames;
      }
      SendError(conn, header.status());
      break;
    }
    std::string payload;
    if (header->payload_bytes > 0) {
      read = ReadFull(conn->socket, &payload, header->payload_bytes,
                      Deadline::After(options_.io_timeout_millis));
      if (!read.ok()) {
        xo::MutexLock lock(&mu_);
        ++stats_.malformed_frames;
        break;
      }
    }

    bool keep_serving = true;
    switch (header->type) {
      case FrameType::kQuery:
      case FrameType::kExecute: {
        Result<QueryRequest> request =
            DecodeQueryRequest(payload, header->flags);
        if (!request.ok()) {
          {
            xo::MutexLock lock(&mu_);
            ++stats_.malformed_frames;
          }
          SendError(conn, request.status());
          keep_serving = false;
          break;
        }
        HandleStatement(conn, header->type, request.value());
        break;
      }
      case FrameType::kCancel: {
        Result<CancelRequest> request = DecodeCancelRequest(payload);
        if (!request.ok()) {
          {
            xo::MutexLock lock(&mu_);
            ++stats_.malformed_frames;
          }
          SendError(conn, request.status());
          keep_serving = false;
          break;
        }
        HandleCancel(conn, request.value());
        break;
      }
      case FrameType::kStats:
        HandleStats(conn);
        break;
      default: {
        // A response frame type arriving as a request.
        {
          xo::MutexLock lock(&mu_);
          ++stats_.malformed_frames;
        }
        SendError(conn,
                  Status::ParseError("response frame type sent as a request"));
        keep_serving = false;
        break;
      }
    }
    if (!keep_serving) break;
  }
  xo::MutexLock lock(&mu_);
  --stats_.active_connections;
  ++stats_.connections_closed;
}

void Server::HandleStatement(Connection* conn, FrameType type,
                             const QueryRequest& request) {
  // Graceful degradation: shed mutations at admission while the engine
  // cannot write. The health latch's own status rides the wire — state
  // name, latched detail, retry-after hint — so the client's backoff layer
  // can tell "retry later" from "give up".
  if (ordb::sql::ClassifyStatement(request.sql) ==
      ordb::sql::StatementClass::kMutation) {
    Status writable = db_->health()->CheckWritable();
    if (!writable.ok()) {
      {
        xo::MutexLock lock(&mu_);
        ++stats_.statements_shed_readonly;
      }
      SendError(conn, writable);
      return;
    }
  }

  Status rejection = Status::OK();
  std::chrono::steady_clock::time_point admitted_at;
  uint64_t server_query_id = 0;
  bool cancelled = false;
  {
    xo::MutexLock lock(&mu_);
    // Slots are handed straight from a finishing statement to the oldest
    // waiter, so statements wait exactly when every slot is busy.
    const bool must_wait =
        busy_slots_ >= std::max<size_t>(options_.worker_threads, 1);
    if (draining_) {
      ++stats_.statements_rejected_draining;
      rejection = Status::Unavailable("server is shutting down");
    } else if (must_wait && stats_.queue_depth >= options_.max_queue_depth) {
      // Admission control: reject fast instead of queuing into collapse.
      ++stats_.statements_rejected_queue;
      rejection =
          Status::ResourceExhausted("statement queue full (" +
                                    std::to_string(options_.max_queue_depth) +
                                    " statements queued)")
              .WithRetryAfter(options_.retry_after_millis);
    } else {
      server_query_id = next_server_query_id_++;
      admitted_at = std::chrono::steady_clock::now();
      ++stats_.statements_admitted;
      conn->server_query_id = server_query_id;
      conn->client_query_id = request.query_id;
      conn->cancel_requested = false;
      conn->abandoned = false;
      if (must_wait) {
        conn->waiting = true;
        ++stats_.queue_depth;
        if (stats_.queue_depth > stats_.peak_queue_depth) {
          stats_.peak_queue_depth = stats_.queue_depth;
        }
        // The statement that hands over its slot clears `waiting`.
        while (conn->waiting) {
          conn->slot_cv.Wait(&mu_);
        }
      } else {
        ++busy_slots_;
      }
      cancelled = conn->cancel_requested;
    }
  }
  if (!rejection.ok()) {
    SendError(conn, rejection);
    return;
  }

  Outcome outcome;
  if (cancelled) {
    // Cancelled (or abandoned) while waiting: answer without running.
    outcome.frame = EncodeError(ErrorFromStatus(
        Status::Cancelled("statement cancelled while queued")));
  } else {
    outcome = RunStatement(db_, type, request, server_query_id, admitted_at);
  }

  bool abandoned;
  {
    xo::MutexLock lock(&mu_);
    ReleaseSlot();
    if (outcome.ok) {
      ++stats_.statements_ok;
    } else {
      ++stats_.statements_error;
    }
    abandoned = conn->abandoned;
    conn->server_query_id = 0;
    conn->client_query_id = 0;
  }
  if (!abandoned) {
    SendFrame(conn, outcome.frame);
  }
}

void Server::ReleaseSlot() {
  // Server ids grow with admission, so the lowest waiting id has waited
  // longest.
  Connection* oldest = nullptr;
  if (stats_.queue_depth > 0) {
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->waiting && (oldest == nullptr || conn->server_query_id <
                                                     oldest->server_query_id)) {
        oldest = conn.get();
      }
    }
  }
  if (oldest == nullptr) {
    --busy_slots_;
    return;
  }
  oldest->waiting = false;
  --stats_.queue_depth;
  oldest->slot_cv.Signal();
}

void Server::HandleCancel(Connection* conn, const CancelRequest& request) {
  // Client-chosen ids need not be unique: every in-flight statement
  // carrying the id is cancelled. Id 0 means "none" and names nothing.
  std::vector<uint64_t> server_ids;
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& other : connections_) {
      if (request.query_id != 0 && other->server_query_id != 0 &&
          other->client_query_id == request.query_id) {
        other->cancel_requested = true;
        server_ids.push_back(other->server_query_id);
      }
    }
  }
  if (server_ids.empty()) {
    SendError(conn, Status::NotFound("no in-flight statement with query id " +
                                     std::to_string(request.query_id)));
    return;
  }
  // Reaches a statement that is already running; a waiting one is covered
  // by the cancel_requested flag it checks when it gets its slot.
  for (uint64_t id : server_ids) {
    Status cancelled = db_->Cancel(id);
    cancelled.IgnoreError();
  }
  SendFrame(conn, EncodeResultOrError(ResultPayload{}));
}

void Server::HandleStats(Connection* conn) {
  // Engine rows first (health state/detail and the containment counters —
  // the degraded-state advertisement), then the server's own counters.
  StatsPayload stats;
  stats.rows = db_->ResilienceStats();
  const ServerStats s = server_stats();
  const std::pair<const char*, uint64_t> counters[] = {
      {"server_connections_accepted", s.connections_accepted},
      {"server_connections_rejected", s.connections_rejected},
      {"server_connections_closed", s.connections_closed},
      {"server_active_connections", s.active_connections},
      {"server_statements_admitted", s.statements_admitted},
      {"server_statements_rejected_queue", s.statements_rejected_queue},
      {"server_statements_shed_readonly", s.statements_shed_readonly},
      {"server_statements_rejected_draining", s.statements_rejected_draining},
      {"server_statements_ok", s.statements_ok},
      {"server_statements_error", s.statements_error},
      {"server_cancelled_on_disconnect", s.cancelled_on_disconnect},
      {"server_malformed_frames", s.malformed_frames},
      {"server_queue_depth", s.queue_depth},
      {"server_peak_queue_depth", s.peak_queue_depth},
  };
  for (const auto& [name, value] : counters) {
    stats.rows.emplace_back(name, std::to_string(value));
  }
  SendFrame(conn, EncodeStats(stats));
}

size_t Server::WatchStatements() {
  struct InFlight {
    Connection* conn;
    uint64_t server_query_id;
    bool cancel_requested;
  };
  std::vector<InFlight> in_flight;
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->server_query_id != 0) {
        in_flight.push_back(
            {conn.get(), conn->server_query_id, conn->cancel_requested});
      }
    }
  }
  // The socket probes and the engine calls run outside the server lock.
  // The Connection pointers stay valid without it because only the
  // acceptor, or Shutdown after joining it, destroys Connections — and this
  // runs on one of those two threads.
  std::vector<uint64_t> cancel;
  for (const InFlight& st : in_flight) {
    if (st.cancel_requested) {
      cancel.push_back(st.server_query_id);
      continue;
    }
    // A client that disconnects mid-statement gets it cancelled instead of
    // burning an engine slot for nobody.
    if (!PeerDisconnected(st.conn->socket)) continue;
    xo::MutexLock lock(&mu_);
    if (st.conn->server_query_id != st.server_query_id ||
        st.conn->cancel_requested) {
      continue;  // finished or cancelled since the snapshot
    }
    st.conn->cancel_requested = true;
    st.conn->abandoned = true;
    ++stats_.cancelled_on_disconnect;
    cancel.push_back(st.server_query_id);
  }
  // NotFound means the statement is still waiting for its slot (it checks
  // cancel_requested there) or already finished.
  for (uint64_t id : cancel) {
    Status cancelled = db_->Cancel(id);
    cancelled.IgnoreError();
  }
  return in_flight.size();
}

void Server::SendFrame(Connection* conn, std::string_view frame) {
  XO_DISCARD_STATUS(
      WriteFull(conn->socket, frame,
                Deadline::After(options_.io_timeout_millis)),
      "a peer that stopped reading forfeits its response; the read loop "
      "observes the dead socket next");
}

void Server::SendError(Connection* conn, const Status& status) {
  SendFrame(conn, EncodeError(ErrorFromStatus(status)));
}

void Server::Shutdown() {
  for (;;) {
    {
      xo::MutexLock lock(&mu_);
      if (shut_down_) return;
      if (!draining_) {
        draining_ = true;
        break;
      }
    }
    // Another thread is mid-shutdown; wait for it to finish.
    std::this_thread::sleep_for(std::chrono::milliseconds(kTickMillis));
  }

  // Stop accepting. The acceptor polls with a short tick and re-checks
  // draining_, so it exits within one tick; the listener closes after the
  // join (never while the acceptor might still poll it). When Start()
  // failed before spawning the acceptor (Listen or BoundPort failed), the
  // handle is default-constructed and there is nothing to join — joining
  // it anyway would throw inside the (noexcept) destructor.
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();

  // Drain: let in-flight statements finish for the grace window. The
  // acceptor is gone, so this thread keeps up the disconnect watch.
  const Deadline drain = Deadline::After(options_.drain_timeout_millis);
  while (WatchStatements() > 0 && !drain.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kTickMillis));
  }
  // Hard timeout: cancel every straggler. Waiting statements are answered
  // kCancelled when they get their slot; the watch fires Database::Cancel
  // at running ones until every statement has been answered.
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->server_query_id != 0) conn->cancel_requested = true;
    }
  }
  while (WatchStatements() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kTickMillis));
  }

  // End the connections. Read-half only: a thread blocked in its idle
  // header read wakes with EOF and exits, while a thread still sending the
  // response of a just-drained statement keeps its write half — the drain
  // guarantee would be hollow if shutdown clipped the final frame.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    xo::MutexLock lock(&mu_);
    connections.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& conn : connections) {
    conn->socket.ShutdownRead();
  }
  for (const std::unique_ptr<Connection>& conn : connections) {
    conn->thread.join();
  }

  xo::MutexLock lock(&mu_);
  shut_down_ = true;
}

ServerStats Server::server_stats() const {
  xo::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace xorator::server
