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

/// Runs one admitted statement that holds an engine slot against `db`
/// under `guard` and encodes the response.
Outcome RunStatement(ordb::Database* db, FrameType type,
                     const QueryRequest& request, ordb::QueryGuard* guard) {
  ordb::QueryOptions query_options;
  query_options.guard = guard;
  query_options.skip_quarantined = request.skip_quarantined;
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

  // The statement's guard lives on this thread's stack, and its clock
  // starts at admission, so the slot wait counts against the deadline.
  // Published in conn->guard before the slot wait, it takes CANCEL frames,
  // the disconnect watch and Shutdown's cancel from then on: none can miss
  // the statement.
  ordb::QueryGuard guard(request.deadline_millis, request.max_memory_bytes);
  Status rejection = Status::OK();
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
      ++stats_.statements_admitted;
      conn->ticket = next_ticket_++;
      conn->client_query_id = request.query_id;
      conn->guard = &guard;
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
    }
  }
  if (!rejection.ok()) {
    SendError(conn, rejection);
    return;
  }

  // A statement cancelled (or abandoned) or expired while it waited is
  // answered without touching the engine: an overloaded server drains its
  // backlog at rejection speed, not service speed.
  Outcome outcome;
  const uint64_t waited = guard.elapsed_millis();
  if (guard.cancel_requested()) {
    outcome.frame = EncodeError(ErrorFromStatus(
        Status::Cancelled("statement cancelled while queued")));
  } else if (request.deadline_millis > 0 && waited >= request.deadline_millis) {
    outcome.frame = EncodeError(ErrorFromStatus(Status::DeadlineExceeded(
        "deadline of " + std::to_string(request.deadline_millis) +
        "ms expired after " + std::to_string(waited) +
        "ms in the admission queue")));
  } else {
    outcome = RunStatement(db_, type, request, &guard);
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
    conn->ticket = 0;
    conn->client_query_id = 0;
    conn->guard = nullptr;  // before the guard goes out of scope
  }
  if (!abandoned) {
    SendFrame(conn, outcome.frame);
  }
}

void Server::ReleaseSlot() {
  // Tickets grow with admission, so the lowest waiting ticket has waited
  // longest.
  Connection* oldest = nullptr;
  if (stats_.queue_depth > 0) {
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->waiting &&
          (oldest == nullptr || conn->ticket < oldest->ticket)) {
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
  // carrying the id is cancelled. Id 0 means "none" and names nothing. A
  // running statement stops at its next guard checkpoint; a waiting one is
  // answered kCancelled when it gets its slot.
  bool found = false;
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& other : connections_) {
      if (request.query_id != 0 && other->guard != nullptr &&
          other->client_query_id == request.query_id) {
        other->guard->Cancel();
        found = true;
      }
    }
  }
  if (!found) {
    SendError(conn, Status::NotFound("no in-flight statement with query id " +
                                     std::to_string(request.query_id)));
    return;
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
    uint64_t ticket;
  };
  size_t in_flight = 0;
  std::vector<InFlight> to_probe;
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->guard == nullptr) continue;
      ++in_flight;
      if (!conn->guard->cancel_requested()) {
        to_probe.push_back({conn.get(), conn->ticket});
      }
    }
  }
  // The socket probes run outside the server lock. The Connection pointers
  // stay valid without it because only the acceptor, or Shutdown after
  // joining it, destroys Connections — and this runs on one of those two
  // threads.
  for (const InFlight& st : to_probe) {
    // A client that disconnects mid-statement gets it cancelled instead of
    // burning an engine slot for nobody.
    if (!PeerDisconnected(st.conn->socket)) continue;
    xo::MutexLock lock(&mu_);
    if (st.conn->ticket != st.ticket || st.conn->guard->cancel_requested()) {
      continue;  // finished or cancelled since the snapshot
    }
    st.conn->abandoned = true;
    ++stats_.cancelled_on_disconnect;
    st.conn->guard->Cancel();
  }
  return in_flight;
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
  // Hard timeout: cancel every straggler, then wait until every statement
  // has been answered. Waiting statements are answered kCancelled when
  // they get their slot; running ones stop at their next guard checkpoint.
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->guard != nullptr) conn->guard->Cancel();
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
