#ifndef XORATOR_COMMON_STATUS_H_
#define XORATOR_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

/// XORATOR_STATUS_CHECK enables the debug unchecked-Status tracker
/// (RocksDB-style): every non-OK `Status` must be inspected — via `ok()`,
/// `code()`, `message()`, `ToString()`, or an explicit `IgnoreError()` —
/// before it is destroyed or overwritten, else the process aborts and
/// prints the site that created the dropped status. The tracker is on in
/// builds without NDEBUG (Debug, Sanitize, ThreadSanitize) and compiled
/// out elsewhere; define XORATOR_STATUS_CHECK=0/1 to override.
#if !defined(XORATOR_STATUS_CHECK)
#if !defined(NDEBUG)
#define XORATOR_STATUS_CHECK 1
#else
#define XORATOR_STATUS_CHECK 0
#endif
#endif

#if XORATOR_STATUS_CHECK
#include <source_location>
#endif

namespace xorator {

/// Machine-readable category of a `Status`.
///
/// Failure taxonomy (DESIGN.md §13): every code falls into one of three
/// classes that the resilience layer keys off.
///   * Retryable — the same operation may succeed if simply re-issued
///     (`kUnavailable` only). `BufferPool` absorbs these with bounded
///     backoff via `Status::IsRetryable()`.
///   * Degradable — the storage underneath the engine misbehaved in a way
///     retrying will not fix (`kIOError`, `kCorruption`). These feed the
///     `EngineHealth` state machine: corruption quarantines the page,
///     WAL-append / checkpoint failures latch read-only mode
///     (`Status::IsDegradable()`).
///   * Caller errors and governed stops — everything else (bad SQL, guard
///     trips, logic errors). The engine itself stays healthy.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  /// A non-transient I/O failure (disk gone, short write, sync failure).
  /// Not retryable, but degradable: the engine can often keep serving
  /// reads from intact pages after latching read-only mode.
  kIOError,
  kNotImplemented,
  kInternal,
  /// Stored data failed an integrity check (checksum mismatch, torn page,
  /// malformed on-disk structure). Never retryable; degradable — the
  /// offending page is quarantined and scans may elect to skip it.
  kCorruption,
  /// A transient I/O failure; the operation may succeed if retried (the
  /// buffer pool retries these with bounded backoff). Also returned by
  /// mutation entry points of an engine latched read-only — retryable in
  /// the wider sense that TryRecover() may re-arm the engine.
  kUnavailable,
  /// The query's deadline (set on its QueryGuard) elapsed before it
  /// finished. The statement unwound cleanly; re-running with a longer
  /// deadline may succeed.
  kDeadlineExceeded,
  /// The query was cooperatively cancelled (QueryGuard::Cancel) and unwound
  /// at its next guard checkpoint.
  kCancelled,
  /// The query exceeded its tracked-memory byte budget (set on its
  /// QueryGuard). Deterministic, not retryable at the
  /// same budget.
  kResourceExhausted,
};

/// Returns a human-readable name for `code` ("OK", "ParseError", ...).
std::string_view StatusCodeToString(StatusCode code);

namespace internal {
/// Prints the dropped status (code, message, creation site) to stderr and
/// aborts. Out of line so the header stays light.
[[noreturn]] void AbortOnUncheckedStatus(StatusCode code,
                                         const std::string& message,
                                         const char* file, unsigned line);
}  // namespace internal

/// Outcome of an operation that can fail.
///
/// The library does not use exceptions; fallible functions return a `Status`
/// (or a `Result<T>`, see result.h) in the style of Arrow and RocksDB. A
/// default-constructed `Status` is OK and carries no message.
///
/// Error-handling contract (DESIGN.md §6): the class is `[[nodiscard]]`, so
/// dropping a returned `Status` on the floor is a compile error
/// (`-Werror=unused-result`). A deliberate drop must be annotated with
/// `XO_DISCARD_STATUS(expr, "why it is safe")`. In debug builds the
/// unchecked-Status tracker (see XORATOR_STATUS_CHECK above) additionally
/// aborts when a non-OK status held in a local or member is destroyed
/// without ever being inspected — the class of drop `[[nodiscard]]` cannot
/// see.
class [[nodiscard]] Status {
 public:
#if XORATOR_STATUS_CHECK
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message,
         std::source_location loc = std::source_location::current())
      : code_(code),
        message_(std::move(message)),
        file_(loc.file_name()),
        line_(loc.line()),
        checked_(code == StatusCode::kOk) {}

  /// A copy carries its own must-check obligation when non-OK; the source
  /// keeps its state (copying is not inspecting).
  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_),
        retry_after_millis_(other.retry_after_millis_),
        file_(other.file_),
        line_(other.line_),
        checked_(other.code_ == StatusCode::kOk) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      EnforceChecked();
      code_ = other.code_;
      message_ = other.message_;
      retry_after_millis_ = other.retry_after_millis_;
      file_ = other.file_;
      line_ = other.line_;
      checked_ = other.code_ == StatusCode::kOk;
    }
    return *this;
  }

  /// A move transfers the must-check obligation to the destination and
  /// leaves the source OK-and-checked.
  Status(Status&& other) noexcept
      : code_(other.code_),
        message_(std::move(other.message_)),
        retry_after_millis_(other.retry_after_millis_),
        file_(other.file_),
        line_(other.line_),
        checked_(other.code_ == StatusCode::kOk) {
    other.code_ = StatusCode::kOk;
    other.retry_after_millis_ = 0;
    other.checked_ = true;
  }
  Status& operator=(Status&& other) noexcept {
    if (this != &other) {
      EnforceChecked();
      code_ = other.code_;
      message_ = std::move(other.message_);
      retry_after_millis_ = other.retry_after_millis_;
      file_ = other.file_;
      line_ = other.line_;
      checked_ = other.code_ == StatusCode::kOk;
      other.code_ = StatusCode::kOk;
      other.retry_after_millis_ = 0;
      other.checked_ = true;
    }
    return *this;
  }

  ~Status() { EnforceChecked(); }
#else
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;

  /// Moves leave the source OK with no retry-after hint in every build —
  /// a defaulted move would leave the source's code and hint behind, so a
  /// moved-from status could still answer IsRetryable() == true and
  /// confuse a retry loop that reuses it.
  Status(Status&& other) noexcept
      : code_(other.code_),
        message_(std::move(other.message_)),
        retry_after_millis_(other.retry_after_millis_) {
    other.code_ = StatusCode::kOk;
    other.retry_after_millis_ = 0;
  }
  Status& operator=(Status&& other) noexcept {
    if (this != &other) {
      code_ = other.code_;
      message_ = std::move(other.message_);
      retry_after_millis_ = other.retry_after_millis_;
      other.code_ = StatusCode::kOk;
      other.retry_after_millis_ = 0;
    }
    return *this;
  }
#endif

  /// Factory for the singleton-like OK status.
  [[nodiscard]] static Status OK() { return Status(); }

#if XORATOR_STATUS_CHECK
#define XORATOR_STATUS_FACTORY_(Name, Code)                 \
  [[nodiscard]] static Status Name(                         \
      std::string msg,                                      \
      std::source_location loc =                            \
          std::source_location::current()) {                \
    return Status(StatusCode::Code, std::move(msg), loc);   \
  }
#else
#define XORATOR_STATUS_FACTORY_(Name, Code)             \
  [[nodiscard]] static Status Name(std::string msg) {   \
    return Status(StatusCode::Code, std::move(msg));    \
  }
#endif
  XORATOR_STATUS_FACTORY_(InvalidArgument, kInvalidArgument)
  XORATOR_STATUS_FACTORY_(ParseError, kParseError)
  XORATOR_STATUS_FACTORY_(NotFound, kNotFound)
  XORATOR_STATUS_FACTORY_(AlreadyExists, kAlreadyExists)
  XORATOR_STATUS_FACTORY_(OutOfRange, kOutOfRange)
  XORATOR_STATUS_FACTORY_(IOError, kIOError)
  XORATOR_STATUS_FACTORY_(NotImplemented, kNotImplemented)
  XORATOR_STATUS_FACTORY_(Internal, kInternal)
  XORATOR_STATUS_FACTORY_(Corruption, kCorruption)
  XORATOR_STATUS_FACTORY_(Unavailable, kUnavailable)
  XORATOR_STATUS_FACTORY_(DeadlineExceeded, kDeadlineExceeded)
  XORATOR_STATUS_FACTORY_(Cancelled, kCancelled)
  XORATOR_STATUS_FACTORY_(ResourceExhausted, kResourceExhausted)
#undef XORATOR_STATUS_FACTORY_

  bool ok() const {
    MarkChecked();
    return code_ == StatusCode::kOk;
  }

  /// True for failures worth re-issuing unchanged: transient I/O faults
  /// (`kUnavailable`), plus any status that carries an explicit
  /// retry-after hint (the network front end's admission rejections are
  /// `kResourceExhausted` *with* a hint — "the queue is full, come back in
  /// N ms" — while a guard's budget trip is `kResourceExhausted` without
  /// one and stays non-retryable). The buffer pool's retry loop and the
  /// client library's backoff layer are both keyed on this, not on the raw
  /// code, so the retry policy and the taxonomy stay in one place (see the
  /// StatusCode comment). Inspecting the class counts as checking the
  /// status.
  bool IsRetryable() const {
    MarkChecked();
    return code_ == StatusCode::kUnavailable || retry_after_millis_ > 0;
  }

  /// Optional retry-after hint in milliseconds (0 = no hint). Set by
  /// producers that know when retrying could help: the server's admission
  /// control ("queue full, back off this long") and the read-only health
  /// latch ("TryRecover() may re-arm the engine; don't hot-retry"). The
  /// hint survives the wire protocol (server/protocol.h, ERROR frames), so
  /// a remote client's backoff layer sees exactly what a local caller
  /// would. Inspecting the hint counts as checking the status.
  uint32_t retry_after_millis() const {
    MarkChecked();
    return retry_after_millis_;
  }

  /// Attaches a retry-after hint (builder style, for use at the creation
  /// site: `Status::ResourceExhausted("...").WithRetryAfter(25)`). A hint
  /// makes the status IsRetryable(); it does not mark it checked.
  Status&& WithRetryAfter(uint32_t millis) && {
    retry_after_millis_ = millis;
    return std::move(*this);
  }

  /// True for storage failures the engine should degrade on rather than
  /// retry: permanent I/O errors and integrity-check failures
  /// (`kIOError`, `kCorruption`). These feed EngineHealth (page
  /// quarantine, read-only latching — DESIGN.md §13). Inspecting the
  /// class counts as checking the status.
  bool IsDegradable() const {
    MarkChecked();
    return code_ == StatusCode::kIOError || code_ == StatusCode::kCorruption;
  }
  StatusCode code() const {
    MarkChecked();
    return code_;
  }
  const std::string& message() const {
    MarkChecked();
    return message_;
  }

  /// "<Code>: <message>" rendering for logs and test failures.
  std::string ToString() const;

  /// Marks this status deliberately inspected-and-ignored, satisfying the
  /// debug unchecked-Status tracker. Use through `XO_DISCARD_STATUS`, which
  /// also records why the drop is safe.
  void IgnoreError() const { MarkChecked(); }

  /// Adopts `other` if this status is OK, else keeps the earlier error and
  /// marks `other` checked — the idiom for combining statuses in cleanup
  /// paths where only the first failure is worth reporting.
  void Update(Status other) {
    if (code_ == StatusCode::kOk) {
      *this = std::move(other);
    } else {
      other.IgnoreError();
    }
  }

 private:
#if XORATOR_STATUS_CHECK
  void MarkChecked() const { checked_ = true; }
  void EnforceChecked() const {
    if (!checked_ && code_ != StatusCode::kOk) {
      internal::AbortOnUncheckedStatus(code_, message_, file_, line_);
    }
  }
#else
  void MarkChecked() const {}
  void EnforceChecked() const {}
#endif

  StatusCode code_;
  std::string message_;
  /// Retry-after hint in milliseconds; 0 means none. See
  /// retry_after_millis().
  uint32_t retry_after_millis_ = 0;
#if XORATOR_STATUS_CHECK
  const char* file_ = "";
  unsigned line_ = 0;
  mutable bool checked_ = true;
#endif
};

namespace internal {
/// XO_DISCARD_STATUS helpers: mark either a `Status` or anything with a
/// `.status()` accessor (i.e. `Result<T>`) as deliberately ignored.
inline void MarkDiscarded(const Status& s) { s.IgnoreError(); }
template <typename R>
void MarkDiscarded(const R& r) {
  r.status().IgnoreError();
}

/// RETURN_IF_ERROR adapter: materializes a `Status` the macro owns, so the
/// argument may safely be a reference into a temporary (e.g.
/// `Fallible().status()`, which dangles the moment the full-expression
/// ends). The lvalue overload also marks the caller's object checked — the
/// macro inspects the copy on its behalf; the rvalue overload just moves,
/// transferring the obligation.
inline Status AdoptStatus(const Status& s) {
  s.IgnoreError();
  return s;  // the copy carries the obligation the macro satisfies
}
inline Status AdoptStatus(Status&& s) { return std::move(s); }
}  // namespace internal

#define XO_CONCAT_IMPL_(x, y) x##y
#define XO_CONCAT_(x, y) XO_CONCAT_IMPL_(x, y)

/// Evaluates `expr` (a `Status`); returns it from the enclosing function if
/// it is not OK. Safe for lvalues (the original is marked checked, not just
/// a copy) and for references into temporaries such as
/// `Fallible().status()` (the status is copied out before the temporary
/// dies) — see internal::AdoptStatus.
#define RETURN_IF_ERROR(expr)                                       \
  do {                                                              \
    ::xorator::Status _xo_status =                                  \
        ::xorator::internal::AdoptStatus((expr));                   \
    if (!_xo_status.ok()) return _xo_status;                        \
  } while (false)

/// Evaluates `rexpr` (a `Result<T>`); on failure returns its status from
/// the enclosing function, otherwise moves the value into `lhs` (which may
/// be a declaration such as `auto v`).
#define ASSIGN_OR_RETURN(lhs, rexpr)                             \
  XO_ASSIGN_OR_RETURN_IMPL_(XO_CONCAT_(_xo_result_, __LINE__), lhs, rexpr)

#define XO_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr) \
  auto result = (rexpr);                              \
  if (!result.ok()) return result.status();           \
  lhs = std::move(result).value();

/// Historical spellings, kept as aliases of the canonical macros above.
#define XO_RETURN_NOT_OK(expr) RETURN_IF_ERROR(expr)
#define XO_ASSIGN_OR_RETURN(lhs, rexpr) ASSIGN_OR_RETURN(lhs, rexpr)

/// Deliberately discards the `Status` (or `Result<T>`) produced by `expr`.
/// `why` must be a non-empty string literal stating the invariant that
/// makes the drop safe; it is compiled out, but its presence is enforced
/// here and by tools/lint (bare `(void)` call discards are banned).
/// Satisfies both `[[nodiscard]]` and the debug unchecked-Status tracker.
#define XO_DISCARD_STATUS(expr, why)                                      \
  do {                                                                    \
    static_assert(sizeof(why) > 1, "XO_DISCARD_STATUS needs a reason");   \
    ::xorator::internal::MarkDiscarded((expr));                           \
  } while (false)

}  // namespace xorator

#endif  // XORATOR_COMMON_STATUS_H_
