// Phase split of one traced job from host stamps on its trace events.
//
//   deploy   run_header -> first interval_begin
//   forecast interval_begin -> forecast, summed over intervals
//   step     the engine's own step wall time (fluid.intervals_per_s, or
//            the event simulator's events_per_s), less the emission of
//            the interval_end records the step itself writes
//   adapt    interval wall time less step, forecast and trace emission
//   emit     time inside forwarded emit() calls
//
// On the event backend interval records are written after the run, so
// adapt cannot be told apart from the event loop: step is the loop's
// wall time from the events_per_s gauge, adapt() included, and adapt
// reads 0 (not measured). Deploy is the rest of the run_header -> first
// interval_begin gap: set-up before the loop and result assembly after.
#pragma once

#include <vector>

#include "sinks.hpp"

namespace perfbench {

struct PhaseSplit {
  double total_ms = 0.0;  ///< the traced job's host wall time.
  double deploy_ms = 0.0;
  double forecast_ms = 0.0;
  double step_ms = 0.0;
  double adapt_ms = 0.0;
  double emit_ms = 0.0;
  /// total minus the phases above: engine set-up before the header and
  /// result assembly after the last interval.
  double other_ms = 0.0;
  std::size_t events = 0;
};

/// Split one job. `step_s` is the engine's step wall time in seconds.
[[nodiscard]] PhaseSplit splitPhases(const std::vector<Stamp>& stamps,
                                     Clock::time_point start,
                                     Clock::time_point end, double step_s,
                                     bool event_backend);

}  // namespace perfbench
