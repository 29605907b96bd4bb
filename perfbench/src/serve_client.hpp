// Open-loop client for dds::serveCampaign.
//
// The generator owns a fixed schedule of (due time, spec line) pairs. It
// sleeps until each due time, hands the line to the serve loop through
// an in-memory pipe, and samples how many records it is still waiting
// for. A tap on the serve loop's output stamps each record as it lands.
// Latency is timed from the due time, not from the send, so a stalled
// generator still charges the wait to the requests it delayed; how late
// the generator ran is reported on its own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dds/exp/serve.hpp"

namespace perfbench {

/// Due times (seconds from stream start) for `count` specs at `rate`
/// per second: one per period with a seeded jitter of up to a quarter
/// period either way, so the schedule is increasing.
[[nodiscard]] std::vector<double> openLoopSchedule(std::size_t count,
                                                   double rate,
                                                   std::uint64_t seed);

/// What one stream produced, per input line (in line order).
struct ServeRun {
  std::vector<std::string> records;  ///< output lines, in arrival order.
  std::vector<double> latency_ms;    ///< record arrival - due time.
  std::vector<double> late_ms;       ///< generator send - due time.
  std::vector<double> outstanding;   ///< records still owed at each send.
  double wall_s = 0.0;               ///< first due time to last record.
  double steady_rate = 0.0;          ///< see steadyRate().
  dds::ServeStats stats;
  std::string error;  ///< what serveCampaign threw, if it threw.
};

/// Per-line latency for arrivals at `arrival_s` of lines due at
/// `due_s` (both relative to the stream start). Lines with no arrival
/// are left out.
[[nodiscard]] std::vector<double> latenciesMs(
    const std::vector<double>& due_s, const std::vector<double>& arrival_s);

/// Records per second while the serve loop runs full: from the arrival
/// of record `window` to that of record n - window - 1, so the ramp-up
/// of the first window and the end-of-input drain of the last are left
/// out. 0 when fewer than 2 * window + 2 records arrived.
[[nodiscard]] double steadyRate(const std::vector<double>& arrival_s,
                                std::size_t window);

/// Run one stream through serveCampaign.
[[nodiscard]] ServeRun runServeStream(const std::vector<std::string>& lines,
                                      const std::vector<double>& due_s,
                                      const dds::ServeOptions& options);

}  // namespace perfbench
