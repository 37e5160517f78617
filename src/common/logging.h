#ifndef LIGHTOR_COMMON_LOGGING_H_
#define LIGHTOR_COMMON_LOGGING_H_

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace lightor::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global minimum level; messages below it are dropped. Defaults to Info.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// "DEBUG" / "INFO" / "WARN" / "ERROR".
const char* LogLevelName(LogLevel level);

/// Parses "debug|info|warning|error" (case-insensitive; "warn" accepted).
/// Returns false (and leaves *out untouched) on anything else.
bool ParseLogLevel(std::string_view name, LogLevel* out);

/// Convenience for `--log-level=...` wiring: parse + SetLogLevel in one
/// call. Returns false without changing the level on a malformed name.
bool SetLogLevelFromString(std::string_view name);

/// Per-component minimum levels. The component of a statement is the
/// source directory of its file: ".../src/storage/crawler.cc" →
/// "storage", a file outside src/ → its parent directory name. A
/// component override wins over the global level in both directions
/// (e.g. debug-only storage while everything else stays at info).
void SetComponentLogLevel(const std::string& component, LogLevel level);
void ClearComponentLogLevels();

/// Component of a source path (exposed for tests).
std::string_view LogComponentFromPath(std::string_view path);

/// Fast gate used by LIGHTOR_LOG: true when a statement at `level`
/// could be emitted under the current global/component configuration.
/// One relaxed atomic load — below-threshold statements never construct
/// their operands.
bool LogEnabled(LogLevel level);

/// One emitted statement, as handed to sinks.
struct LogEntry {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";
  int line = 0;
  std::string_view component;
  std::string message;
};

/// Pluggable destination for log statements. Write may be called from
/// multiple threads; dispatch is serialized by the logging mutex, so a
/// sink needs no locking of its own.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogEntry& entry) = 0;
};

/// Registers / removes an additional sink. The built-in stderr sink is
/// separate (see EnableStderrLogging) and unaffected.
void AddLogSink(std::shared_ptr<LogSink> sink);
void RemoveLogSink(const std::shared_ptr<LogSink>& sink);

/// The default stderr destination ("[LEVEL] file:line message"), on by
/// default; tests typically turn it off while a capture sink is active.
void EnableStderrLogging(bool enabled);

/// Appends every statement to a text file ("[LEVEL] file:line message").
class FileLogSink : public LogSink {
 public:
  explicit FileLogSink(const std::string& path);
  ~FileLogSink() override;
  void Write(const LogEntry& entry) override;
  bool ok() const { return file_ != nullptr; }

 private:
  std::FILE* file_ = nullptr;
};

/// Collects statements in memory for assertions. RAII: registers itself
/// on construction and unregisters (restoring stderr) on destruction.
class CaptureLogs {
 public:
  CaptureLogs();
  ~CaptureLogs();

  CaptureLogs(const CaptureLogs&) = delete;
  CaptureLogs& operator=(const CaptureLogs&) = delete;

  const std::vector<LogEntry>& entries() const;
  /// Concatenated "[LEVEL] message" lines (no file:line, for matching).
  std::string Text() const;
  bool Contains(std::string_view needle) const;

 private:
  class Sink;
  std::shared_ptr<Sink> sink_;
  bool stderr_was_enabled_;
};

/// Emits one log line through the configured sinks. Applies the precise
/// per-component filter (LogEnabled is only the conservative fast gate).
void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message);

/// Stream-style log statement collector; emits on destruction.
class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

namespace internal {
/// Swallows the LogStream in the enabled branch of LIGHTOR_LOG so both
/// arms of the ternary have type void. `&` binds looser than `<<`, so
/// the whole streamed chain is evaluated first (glog's trick).
struct LogVoidify {
  void operator&(const LogStream&) {}
};
}  // namespace internal

}  // namespace lightor::common

/// Lazily-evaluated log statement: when `level` is below the effective
/// threshold the right-hand side — including every streamed operand —
/// is never evaluated.
#define LIGHTOR_LOG(level)                                                  \
  (!::lightor::common::LogEnabled(::lightor::common::LogLevel::k##level))   \
      ? (void)0                                                             \
      : ::lightor::common::internal::LogVoidify() &                         \
            ::lightor::common::LogStream(                                   \
                ::lightor::common::LogLevel::k##level, __FILE__, __LINE__)

#endif  // LIGHTOR_COMMON_LOGGING_H_
