#include "serve_client.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <random>
#include <streambuf>
#include <thread>

#include "sinks.hpp"

namespace perfbench {
namespace {

/// Blocking line pipe: the generator pushes lines, serveCampaign reads
/// them; reads block until a line arrives or the pipe is closed.
class LinePipe final : public std::streambuf {
 public:
  void push(std::string line) {
    line.push_back('\n');
    {
      std::scoped_lock lock(mutex_);
      queue_.push_back(std::move(line));
    }
    ready_.notify_one();
  }
  void close() {
    {
      std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
  }

 protected:
  int_type underflow() override {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return traits_type::eof();
    current_ = std::move(queue_.front());
    queue_.pop_front();
    setg(current_.data(), current_.data(),
         current_.data() + current_.size());
    return traits_type::to_int_type(current_.front());
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> queue_;
  bool closed_ = false;
  std::string current_;
};

/// Output tap: splits the serve loop's output into records and stamps
/// each one when its newline lands.
class RecordTap final : public std::streambuf {
 public:
  explicit RecordTap(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] std::size_t count() const {
    return count_.load(std::memory_order_acquire);
  }
  std::vector<std::string> records;
  std::vector<double> arrival_s;

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
    if (c != '\n') {
      partial_.push_back(c);
      return;
    }
    arrival_s.push_back(
        std::chrono::duration<double>(Clock::now() - origin_).count());
    records.push_back(std::move(partial_));
    partial_.clear();
    count_.fetch_add(1, std::memory_order_release);
  }

  Clock::time_point origin_;
  std::string partial_;
  std::atomic<std::size_t> count_{0};
};

}  // namespace

std::vector<double> openLoopSchedule(std::size_t count, double rate,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(-0.25, 0.25);
  const double period = 1.0 / rate;
  std::vector<double> due(count);
  for (std::size_t k = 0; k < count; ++k) {
    due[k] = (static_cast<double>(k) + 0.5 + jitter(rng)) * period;
  }
  return due;
}

std::vector<double> latenciesMs(const std::vector<double>& due_s,
                                const std::vector<double>& arrival_s) {
  std::vector<double> out;
  const std::size_t n = std::min(due_s.size(), arrival_s.size());
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back((arrival_s[k] - due_s[k]) * 1e3);
  }
  return out;
}

double steadyRate(const std::vector<double>& arrival_s, std::size_t window) {
  const std::size_t n = arrival_s.size();
  if (n < 2 * window + 2) return 0.0;
  const std::size_t first = window;
  const std::size_t last = n - window - 1;
  const double span = arrival_s[last] - arrival_s[first];
  return span > 0.0 ? static_cast<double>(last - first) / span : 0.0;
}

ServeRun runServeStream(const std::vector<std::string>& lines,
                        const std::vector<double>& due_s,
                        const dds::ServeOptions& options) {
  ServeRun run;
  LinePipe pipe;
  std::istream in(&pipe);
  const Clock::time_point origin = Clock::now();
  RecordTap tap(origin);
  std::ostream out(&tap);

  // An exception escaping serveCampaign is reported, never rethrown on
  // the server thread (that would end the process).
  std::thread server([&] {
    try {
      run.stats = dds::serveCampaign(in, out, options);
    } catch (const std::exception& e) {
      run.error = e.what();
    }
  });
  run.late_ms.reserve(lines.size());
  run.outstanding.reserve(lines.size());
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due_s[k]));
    std::this_thread::sleep_until(due);
    run.late_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due)
            .count());
    run.outstanding.push_back(static_cast<double>(k - tap.count()));
    pipe.push(lines[k]);
  }
  pipe.close();
  server.join();

  run.records = std::move(tap.records);
  run.latency_ms = latenciesMs(due_s, tap.arrival_s);
  run.steady_rate = steadyRate(
      tap.arrival_s, options.queue == 0 ? 2 * options.jobs : options.queue);
  if (!tap.arrival_s.empty() && !due_s.empty()) {
    run.wall_s = tap.arrival_s.back() - due_s.front();
  }
  return run;
}

}  // namespace perfbench
