// Unit tests of the benchmark's own arithmetic: percentiles and sample
// counts, due-time accounting of the open-loop client, the counting
// discard stream, the phase split and host-speed scaling.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "dds/obs/jsonl_sink.hpp"
#include "reference.hpp"
#include "serve_client.hpp"
#include "sinks.hpp"
#include "split.hpp"
#include "stats.hpp"

namespace pb = perfbench;

TEST(Stats, PercentileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(pb::percentile({5, 1, 3, 2, 4}, 50), 3.0);
  EXPECT_DOUBLE_EQ(pb::percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.1);
  EXPECT_DOUBLE_EQ(pb::percentile({7}, 90), 7.0);
  EXPECT_DOUBLE_EQ(pb::percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(pb::percentile({1, 2}, 0), 1.0);
  EXPECT_DOUBLE_EQ(pb::percentile({1, 2}, 100), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4, 1, 3, 2}), 2.5);
  // The library's estimator agrees with the wrapper on a non-empty sample.
  const std::vector<double> v = {3, 9, 1, 7};
  EXPECT_DOUBLE_EQ(pb::percentile(v, 75), dds::percentile(v, 75));
}

TEST(Stats, HarrellDavisIsSmoothAcrossClusters) {
  EXPECT_DOUBLE_EQ(pb::hdPercentile({}, 50), 0.0);
  EXPECT_NEAR(pb::hdPercentile({7}, 90), 7.0, 1e-9);
  EXPECT_NEAR(pb::hdPercentile({4, 4, 4, 4}, 50), 4.0, 1e-9);
  // Symmetric sample: the median estimate is the centre.
  EXPECT_NEAR(pb::hdPercentile({1, 2, 3, 4, 5}, 50), 3.0, 1e-9);
  // Two clusters of twelve: type 7 reads the mean of the two values at
  // the gap, so moving the lower cluster's top value moves it by half of
  // that; Harrell-Davis spreads its weight and moves far less.
  std::vector<double> v;
  for (int k = 0; k < 12; ++k) v.push_back(10.0 + 0.1 * k);
  for (int k = 0; k < 12; ++k) v.push_back(20.0 + 0.1 * k);
  std::vector<double> moved = v;
  moved[11] += 4.0;
  const double type7 = pb::percentile(moved, 50) - pb::percentile(v, 50);
  const double hd = pb::hdPercentile(moved, 50) - pb::hdPercentile(v, 50);
  EXPECT_NEAR(type7, 2.0, 1e-9);
  EXPECT_GT(hd, 0.0);
  EXPECT_LT(hd, 0.5 * type7);
  EXPECT_GT(pb::hdPercentile(v, 90), pb::hdPercentile(v, 50));
}

TEST(Stats, SampleCountsForTenBeyond) {
  EXPECT_EQ(pb::samplesBeyond(100, 90), 10u);
  EXPECT_EQ(pb::samplesBeyond(99, 90), 9u);
  EXPECT_EQ(pb::samplesBeyond(20, 50), 10u);
  EXPECT_EQ(pb::samplesBeyond(1000, 99), 10u);
  EXPECT_EQ(pb::samplesBeyond(0, 90), 0u);
}

TEST(Stats, RatioOfEmptyBaseIsZero) {
  EXPECT_DOUBLE_EQ(pb::ratio(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(pb::ratio(3, 4), 0.75);
}

TEST(Schedule, JitteredPeriodIsIncreasingAndSeeded) {
  const auto a = pb::openLoopSchedule(1000, 50.0, 7);
  const auto b = pb::openLoopSchedule(1000, 50.0, 7);
  const auto c = pb::openLoopSchedule(1000, 50.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double slot = (static_cast<double>(k) + 0.5) / 50.0;
    EXPECT_LE(std::abs(a[k] - slot), 0.25 / 50.0 + 1e-12);
    if (k > 0) {
      EXPECT_GT(a[k], a[k - 1]);
    }
  }
}

TEST(Schedule, LatencyIsTimedFromDueTime) {
  // A request sent late still owes the wait from its due time.
  const std::vector<double> due = {0.1, 0.2, 0.3};
  const std::vector<double> arrival = {0.15, 0.40};
  const std::vector<double> ms = pb::latenciesMs(due, arrival);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_NEAR(ms[0], 50.0, 1e-9);
  EXPECT_NEAR(ms[1], 200.0, 1e-9);
}

TEST(Serve, StreamGivesOneRecordPerLineInOrder) {
  const std::vector<std::string> lines = {"{\"v\":2}", "not json",
                                          "{\"v\":1,\"bogus\":1}"};
  const std::vector<double> due = {0.0, 0.01, 0.02};
  dds::ServeOptions options;
  options.jobs = 2;
  const pb::ServeRun run = pb::runServeStream(lines, due, options);
  EXPECT_TRUE(run.error.empty());
  ASSERT_EQ(run.records.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NE(run.records[k].find("\"index\":" + std::to_string(k)),
              std::string::npos);
    EXPECT_GE(run.latency_ms[k], 0.0);
    EXPECT_GE(run.late_ms[k], 0.0);
  }
  EXPECT_EQ(run.stats.rejected, 3u);
  EXPECT_EQ(run.outstanding.front(), 0.0);
}

TEST(Sinks, CountingStreamCountsBytesAndLines) {
  pb::CountingDiscardStream s;
  s << "abc\n" << 'x' << '\n' << std::string(5000, 'y');
  s.flush();
  EXPECT_EQ(s.bytes(), 4u + 2u + 5000u);
  EXPECT_EQ(s.lines(), 2u);
}

TEST(Sinks, JsonlSinkWritesOneLinePerEvent) {
  pb::CountingDiscardStream s;
  dds::obs::JsonlTraceSink jsonl(s);
  pb::HostStampSink stamps(jsonl);
  dds::obs::RunHeaderEvent header;
  header.scheduler = "global";
  stamps.emit(header);
  stamps.emit(dds::obs::IntervalBeginEvent{.t = 0.0, .interval = 0});
  stamps.emit(dds::obs::IntervalEndEvent{.t = 60.0, .interval = 0});
  EXPECT_EQ(s.lines(), 3u);
  EXPECT_EQ(jsonl.eventCount(), 3u);
  EXPECT_GT(s.bytes(), 3u * 10u);
  ASSERT_EQ(stamps.stamps().size(), 3u);
  for (const pb::Stamp& st : stamps.stamps()) EXPECT_LE(st.enter, st.exit);
}

namespace {

pb::Stamp at(const dds::obs::TraceEvent& e, double enter_ms, double exit_ms,
             pb::Clock::time_point origin) {
  const auto t = [&](double ms) {
    return origin + std::chrono::duration_cast<pb::Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
  };
  return {e.index(), t(enter_ms), t(exit_ms)};
}

}  // namespace

TEST(Split, FluidPhasesAddUpToTheJob) {
  using namespace dds::obs;
  const pb::Clock::time_point o{};
  const std::vector<pb::Stamp> stamps = {
      at(RunHeaderEvent{}, 1, 2, o),      at(IntervalBeginEvent{}, 4, 5, o),
      at(ForecastEvent{}, 6, 7, o),       at(IntervalEndEvent{}, 9, 10, o),
      at(IntervalBeginEvent{}, 11, 12, o), at(IntervalEndEvent{}, 15, 16, o)};
  const auto t = [&](double ms) {
    return o + std::chrono::duration_cast<pb::Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
  };
  const pb::PhaseSplit s = pb::splitPhases(stamps, t(0), t(17), 0.005, false);
  EXPECT_NEAR(s.total_ms, 17.0, 1e-6);
  EXPECT_NEAR(s.emit_ms, 6.0, 1e-6);
  EXPECT_NEAR(s.deploy_ms, 2.0, 1e-6);
  EXPECT_NEAR(s.forecast_ms, 1.0, 1e-6);
  EXPECT_NEAR(s.step_ms, 3.0, 1e-6);   // 5 ms gauge less 2 ms of interval_end
  EXPECT_NEAR(s.adapt_ms, 3.0, 1e-6);  // 10 ms of windows less 1 + 5 + 1
  EXPECT_NEAR(s.other_ms, 2.0, 1e-6);  // before the header, after the end
  EXPECT_EQ(s.events, 6u);
}

TEST(Split, EventBackendCountsAdaptInsideStep) {
  using namespace dds::obs;
  const pb::Clock::time_point o{};
  const auto t = [&](double ms) {
    return o + std::chrono::duration_cast<pb::Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
  };
  // Header exits at 1 ms, the first interval_begin enters at 20 ms: a
  // 19 ms gap holding a 12 ms event loop and one 1 ms emit inside it.
  const std::vector<pb::Stamp> stamps = {
      at(RunHeaderEvent{}, 0, 1, o), at(SchedulerDecisionEvent{}, 3, 4, o),
      at(IntervalBeginEvent{}, 20, 21, o), at(IntervalEndEvent{}, 21, 22, o)};
  const pb::PhaseSplit s = pb::splitPhases(stamps, t(0), t(23), 0.012, true);
  EXPECT_NEAR(s.step_ms, 12.0, 1e-6);
  EXPECT_NEAR(s.adapt_ms, 0.0, 1e-12);  // not measured on this backend
  EXPECT_NEAR(s.deploy_ms, 19.0 - 12.0, 1e-6);
  EXPECT_NEAR(s.emit_ms, 4.0, 1e-6);
  // 23 ms less deploy, step and the three emits outside the gap.
  EXPECT_NEAR(s.other_ms, 23.0 - 7.0 - 12.0 - 3.0, 1e-6);
}

TEST(Reference, WorkIsFixedAndScalesToNominal) {
  EXPECT_EQ(pb::referenceWork(), pb::referenceWork());
  EXPECT_GT(pb::referenceMs(), 0.0);
  EXPECT_DOUBLE_EQ(pb::speedFactor(pb::kNominalReferenceMs), 1.0);
  // A host twice as slow as nominal halves wall times and doubles rates.
  EXPECT_DOUBLE_EQ(pb::speedFactor(2.0 * pb::kNominalReferenceMs), 0.5);
  EXPECT_DOUBLE_EQ(pb::speedFactor(0.0), 1.0);
}

TEST(Reference, StolenShareIsStealOverWantedTime) {
  // 100 busy ticks and 25 stolen: a fifth of the CPU time wanted.
  EXPECT_DOUBLE_EQ(pb::stolenShare({1000, 50}, {1100, 75}), 0.2);
  // No work between the readings, or no counters at all: no correction.
  EXPECT_DOUBLE_EQ(pb::stolenShare({1000, 50}, {1000, 50}), 0.0);
  EXPECT_DOUBLE_EQ(pb::stolenShare({}, {}), 0.0);
  // A reading that is mostly steal is capped, so one bad phase cannot
  // more than double a rate.
  EXPECT_DOUBLE_EQ(pb::stolenShare({0, 0}, {10, 90}), 0.5);
  EXPECT_GT(pb::referenceCpuMs(), 0.0);
}

TEST(Schedule, SteadyRateLeavesOutRampAndDrain) {
  // Ten records: a slow first window, one record every 10 ms while the
  // window is full, and a slow drain. With a window of 2 the rate is
  // taken from record 2 to record 7.
  const std::vector<double> arrivals = {0.5,  0.9,  1.00, 1.01, 1.02,
                                        1.03, 1.04, 1.05, 1.50, 2.00};
  EXPECT_NEAR(pb::steadyRate(arrivals, 2), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(pb::steadyRate({0.1, 0.2, 0.3, 0.4, 0.5}, 2), 0.0);
}
