// Streaming JSONL trace sink.
//
// One compact JSON object per line, written as events arrive so a
// multi-hour run never buffers its trace. Doubles use one fixed text
// form (common/json), and non-finite values serialize as
// "NaN"/"Infinity"/"-Infinity" string sentinels that TraceReader maps
// back exactly — parse -> re-serialize is therefore byte-identical,
// which `ddtrace --check` verifies.
//
// Each event serializes into one reused byte buffer (no per-event
// allocation once it has grown) and goes to the stream in one write
// before emit() returns; the stream does its own buffering.
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "dds/obs/trace_sink.hpp"

namespace dds::obs {

/// Append one JSONL line (no trailing newline) for `event` to `out`.
void appendTraceEventJson(std::string& out, const TraceEvent& event);

/// One JSONL line (no trailing newline) for a single event.
[[nodiscard]] std::string traceEventJson(const TraceEvent& event);

/// Writes each event as one JSONL line to a stream or file.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Stream ctor: the sink does not own `out` (tests pass an
  /// ostringstream; campaign jobs use the path ctor).
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}

  /// File ctor: opens (truncates) `path`; throws IoError on failure.
  explicit JsonlTraceSink(const std::string& path);

  void emit(const TraceEvent& event) override;

  /// Flush the stream; false when it has failed (for a file: the trace
  /// is incomplete).
  [[nodiscard]] bool flush();

  /// Events written so far.
  [[nodiscard]] std::uint64_t eventCount() const { return count_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  std::string buffer_;  // the line being written, reused across events
  std::uint64_t count_ = 0;
};

}  // namespace dds::obs
