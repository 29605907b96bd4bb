#include "dds/exp/serve.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

namespace dds {
namespace {

std::string specLine(std::uint64_t seed, const std::string& scheduler) {
  return R"({"v": 1, "tenant": "t", "scheduler": ")" + scheduler +
         R"(", "config": {"seed": )" + std::to_string(seed) +
         R"(, "horizon_h": 0.25, "workload.mean_rate": 8}})";
}

ServeOptions serveOptions(std::size_t jobs, std::size_t queue = 0) {
  ServeOptions options;
  options.jobs = jobs;
  options.queue = queue;
  return options;
}

std::string serveAll(const std::string& input, const ServeOptions& options,
                     ServeStats* stats = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  const ServeStats s = serveCampaign(in, out, options);
  if (stats != nullptr) *stats = s;
  return out.str();
}

/// Input that blocks like an open pipe: reads wait until text is fed
/// or the writer closes.
class BlockingInput final : public std::streambuf {
 public:
  void feed(const std::string& text) {
    {
      const std::scoped_lock lock(mutex_);
      pending_ += text;
    }
    ready_.notify_one();
  }
  void close() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
  }

 protected:
  int_type underflow() override {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return !pending_.empty() || closed_; });
    if (pending_.empty()) return traits_type::eof();
    current_.swap(pending_);
    pending_.clear();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_.front());
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string pending_;
  std::string current_;
  bool closed_ = false;
};

/// Output a test thread can wait on while the serve loop writes to it.
class WatchedOutput final : public std::streambuf {
 public:
  /// True once `lines` newlines have landed, false at `deadline`.
  bool waitForLines(std::size_t lines, std::chrono::seconds deadline) {
    std::unique_lock lock(mutex_);
    return landed_.wait_for(lock, deadline, [&] { return newlines_ >= lines; });
  }
  std::string text() {
    const std::scoped_lock lock(mutex_);
    return text_;
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      put(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }

 private:
  void put(char c) {
    {
      const std::scoped_lock lock(mutex_);
      text_.push_back(c);
      if (c == '\n') ++newlines_;
    }
    if (c == '\n') landed_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable landed_;
  std::string text_;
  std::size_t newlines_ = 0;
};

TEST(Serve, StreamsOneRecordPerSpecInOrder) {
  std::string input;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    input += specLine(seed, "global") + "\n";
  }
  ServeStats stats;
  const std::string out = serveAll(input, serveOptions(1), &stats);
  EXPECT_EQ(stats.specs, 3u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);

  std::istringstream lines(out);
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"index\":" + std::to_string(i)), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    ++i;
  }
  EXPECT_EQ(i, 3u);
}

TEST(Serve, RecordsCarryNoTimingFields) {
  const std::string out = serveAll(specLine(1, "global") + "\n", serveOptions(1));
  EXPECT_EQ(out.find("wall_s"), std::string::npos);
}

TEST(Serve, ParallelStreamIsByteIdenticalToSerial) {
  // The serve-mode oracle: same records, same bytes, any worker count,
  // any backpressure window — including rejected lines interleaved.
  std::string input;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    input += specLine(seed, seed % 2 == 0 ? "global" : "local") + "\n";
  }
  input += "{\"v\": 2}\n";   // rejected: bad version
  input += "\n";              // blank: skipped entirely
  input += specLine(9, "global") + "\n";
  input += "garbage\n";      // rejected: not JSON

  const std::string serial = serveAll(input, serveOptions(1));
  const std::string parallel = serveAll(input, serveOptions(4));
  const std::string tight = serveAll(input, serveOptions(3, 1));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, tight);
}

TEST(Serve, EmitsEachRecordBeforeTheNextLineArrives) {
  // The input stays open after one spec: its record must still be
  // written, without waiting for more lines or for end of input.
  BlockingInput input;
  std::istream in(&input);
  WatchedOutput output;
  std::ostream out(&output);
  ServeStats stats;
  std::thread server([&] {
    stats = serveCampaign(in, out, serveOptions(2, 4));
  });
  input.feed(specLine(3, "global") + "\n");
  const bool landed = output.waitForLines(1, std::chrono::seconds(30));
  input.close();
  server.join();
  EXPECT_TRUE(landed) << "no record before the input closed";
  EXPECT_EQ(output.text(), serveAll(specLine(3, "global") + "\n", serveOptions(1)));
  EXPECT_EQ(stats.specs, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST(Serve, LongFrontJobHoldsLaterRecordsInLineOrder) {
  // A long job at the front and short ones behind it finish out of
  // order on two workers; rejected lines sit between them. The records
  // still leave in line order, byte for byte as the serial path writes.
  const std::string long_job =
      R"({"v": 1, "tenant": "t", "scheduler": "local", "config":)"
      R"( {"seed": 4, "horizon_h": 24, "workload.mean_rate": 8}})";
  std::string input = long_job + "\n";
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    input += specLine(seed, "global") + "\n";
    if (seed % 2 == 1) input += "{\"v\": 1, \"nope\": true}\n";
  }
  input += "not json\n";
  input += specLine(7, "local") + "\n";

  ServeStats serial_stats;
  ServeStats parallel_stats;
  const std::string serial = serveAll(input, serveOptions(1), &serial_stats);
  const std::string parallel =
      serveAll(input, serveOptions(2, 4), &parallel_stats);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(parallel_stats.specs, serial_stats.specs);
  EXPECT_EQ(parallel_stats.ok, serial_stats.ok);
  EXPECT_EQ(parallel_stats.failed, serial_stats.failed);
  EXPECT_EQ(parallel_stats.rejected, serial_stats.rejected);
  EXPECT_EQ(serial_stats.specs, 12u);
  EXPECT_EQ(serial_stats.ok, 8u);
  EXPECT_EQ(serial_stats.rejected, 4u);
}

TEST(Serve, RejectedLinesGetErrorRecordsAtTheirIndex) {
  const std::string input = specLine(0, "global") + "\n" +
                            "{\"v\": 1, \"nope\": true}\n" +
                            specLine(2, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, serveOptions(2), &stats);
  EXPECT_EQ(stats.specs, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.rejected, 1u);

  std::vector<std::string> lines;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find("\"index\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"rejected\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("nope"), std::string::npos);
  EXPECT_NE(lines[2].find("\"index\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos);
}

TEST(Serve, HostileNestingGetsOneRejectionRecord) {
  const std::string input =
      std::string(200'000, '[') + "\n" + specLine(1, "global") + "\n";
  ServeOptions options;
  options.jobs = 1;
  ServeStats stats;
  const std::string out = serveAll(input, options, &stats);
  EXPECT_EQ(stats.specs, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.ok, 1u);
  std::istringstream in(out);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"rejected\":true"), std::string::npos);
  EXPECT_NE(line.find("nesting deeper than 256"), std::string::npos) << line;
}

TEST(Serve, JobFailuresAreInBandRecords) {
  // An intractable job fails while running (not a rejection): the
  // stream carries ok:false with the error, and later records follow.
  const std::string brute =
      R"({"v": 1, "scheduler": "brute-force-static", "config":)"
      R"( {"horizon_h": 0.25, "workload.mean_rate": 50}})";
  const std::string input = brute + "\n" + specLine(1, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, serveOptions(2), &stats);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_NE(out.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(out.find("\"rejected\""), std::string::npos);
}

TEST(Serve, SharedSubstrateAmortizesAcrossStreams) {
  const auto substrate = std::make_shared<Substrate>();
  ServeOptions options;
  options.jobs = 1;
  options.substrate = substrate;
  const std::string first = serveAll(specLine(5, "global") + "\n", options);
  const std::string second = serveAll(specLine(5, "global") + "\n", options);
  EXPECT_EQ(first, second);
  const Substrate::Stats stats = substrate->stats();
  EXPECT_EQ(stats.catalog_builds, 1u);
  EXPECT_GE(stats.catalog_hits, 1u);
  EXPECT_EQ(stats.graph_builds, 1u);
  EXPECT_GE(stats.graph_hits, 1u);
}

}  // namespace
}  // namespace dds
