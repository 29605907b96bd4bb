// Trace plumbing owned by the benchmark: a stream that counts and drops
// what JsonlTraceSink writes (no disk I/O in any timed region), and a
// sink that stamps host time on every event before forwarding it.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <vector>

#include "dds/obs/trace_sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Counts bytes and newlines, keeps nothing.
class CountingDiscardBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t lines() const { return lines_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    for (const char* p = s; (p = static_cast<const char*>(std::memchr(
                                 p, '\n', static_cast<std::size_t>(s + n - p)))) != nullptr;
         ++p) {
      ++lines_;
    }
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    ++bytes_;
    if (traits_type::to_char_type(ch) == '\n') ++lines_;
    return ch;
  }

 private:
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
};

/// An ostream over a CountingDiscardBuf.
class CountingDiscardStream final : public std::ostream {
 public:
  CountingDiscardStream() : std::ostream(&buf_) {}
  [[nodiscard]] std::uint64_t bytes() const { return buf_.bytes(); }
  [[nodiscard]] std::uint64_t lines() const { return buf_.lines(); }

 private:
  CountingDiscardBuf buf_;
};

/// One stamped event: its variant index and the host time on entry to
/// and exit from the forwarded emit() call.
struct Stamp {
  std::size_t kind = 0;
  Clock::time_point enter;
  Clock::time_point exit;
};

/// Stamps host time around every emit() and forwards to `next`.
class HostStampSink final : public dds::obs::TraceSink {
 public:
  explicit HostStampSink(dds::obs::TraceSink& next) : next_(&next) {
    stamps_.reserve(16384);
  }

  void emit(const dds::obs::TraceEvent& event) override {
    Stamp s;
    s.kind = event.index();
    s.enter = Clock::now();
    next_->emit(event);
    s.exit = Clock::now();
    stamps_.push_back(s);
  }

  [[nodiscard]] const std::vector<Stamp>& stamps() const { return stamps_; }

 private:
  dds::obs::TraceSink* next_;
  std::vector<Stamp> stamps_;
};

}  // namespace perfbench
