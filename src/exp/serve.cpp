#include "dds/exp/serve.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>

#include "dds/common/json.hpp"
#include "dds/common/thread_pool.hpp"

namespace dds {
namespace {

bool blankLine(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

void emitRecord(std::ostream& out, const std::string& record) {
  out << record << '\n';
  out.flush();
}

/// The parallel path's shared state: one slot per admitted line, in line
/// order, the front being the oldest record not yet written. Rejections
/// occupy a slot too, which is what keeps emission in line order without
/// any reordering logic. One mutex guards the slots, the FIFO of jobs not
/// yet started, the counters and the output stream.
class ServeWindow {
 public:
  ServeWindow(std::ostream& out, std::size_t capacity)
      : out_(out), capacity_(capacity) {}

  /// Reader side: block while the window is full, then take line `index`
  /// as a job to run or, without one, as the finished `rejection` record.
  /// False once a task has failed; nothing is admitted then.
  bool admit(std::size_t index, std::optional<ExperimentJob> job,
             std::string rejection) {
    std::unique_lock lock(mutex_);
    room_.wait(lock, [&] { return slots_.size() < capacity_ || error_; });
    if (error_) return false;
    if (job) {
      slots_.emplace_back();
      queued_.emplace_back(index, std::move(*job));
    } else {
      ++stats_.rejected;
      slots_.emplace_back(std::move(rejection));
      emitReady();
    }
    return true;
  }

  /// Pool task: start the oldest queued job (so jobs start in line order
  /// whichever deque the pool took this task from), run it, and write
  /// every finished record from the front onward. An exception is kept
  /// for finish(), not left in the task's discarded future.
  void runOldest(Substrate* sub) {
    try {
      std::pair<std::size_t, ExperimentJob> next;
      {
        const std::scoped_lock lock(mutex_);
        if (error_) return;
        next = std::move(queued_.front());
        queued_.pop_front();
      }
      const auto& [index, job] = next;
      const JobOutcome outcome = runExperimentJob(job, index, sub);
      std::string record = jobRecordJson(outcome, index);
      const std::scoped_lock lock(mutex_);
      outcome.ok ? ++stats_.ok : ++stats_.failed;
      slots_[index - front_index_] = std::move(record);
      emitReady();
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      if (!error_) error_ = std::current_exception();
      room_.notify_one();
    }
  }

  /// After the pool has drained: the counters, or the first task failure.
  ServeStats finish(std::size_t specs) {
    if (error_) std::rethrow_exception(error_);
    stats_.specs = specs;
    return stats_;
  }

 private:
  /// Writes the finished records at the front; caller holds mutex_.
  void emitReady() {
    bool freed = false;
    while (!slots_.empty() && slots_.front()) {
      emitRecord(out_, *slots_.front());
      slots_.pop_front();
      ++front_index_;
      freed = true;
    }
    if (freed) room_.notify_one();
  }

  std::ostream& out_;
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable room_;  ///< the reader waits here for a slot.
  std::deque<std::optional<std::string>> slots_;  ///< record, once done.
  std::size_t front_index_ = 0;  ///< line index of slots_.front().
  std::deque<std::pair<std::size_t, ExperimentJob>> queued_;
  ServeStats stats_;
  std::exception_ptr error_;
};

}  // namespace

std::string specErrorJson(std::size_t index, const std::string& error) {
  JsonWriter w(JsonWriter::Options{JsonWriter::Style::Compact,
                                   JsonWriter::NonFinitePolicy::Throw});
  w.beginObject();
  w.key("v").value(JobSpec::kVersion);
  w.key("index").value(static_cast<std::uint64_t>(index));
  w.key("ok").value(false);
  w.key("rejected").value(true);
  w.key("error").value(error);
  w.endObject();
  return w.str();
}

ServeStats serveCampaign(std::istream& in, std::ostream& out,
                         const ServeOptions& options) {
  const std::size_t workers =
      options.jobs == 0 ? ThreadPool::hardwareConcurrency() : options.jobs;
  const std::shared_ptr<Substrate> substrate =
      options.substrate != nullptr ? options.substrate
                                   : std::make_shared<Substrate>();
  Substrate* sub = substrate.get();
  ServeStats stats;
  std::string line;
  std::size_t index = 0;

  if (workers <= 1) {
    // Serial reference path: parse, run, emit, one line at a time.
    while (std::getline(in, line)) {
      if (blankLine(line)) continue;
      const std::size_t i = index++;
      ++stats.specs;
      try {
        const ExperimentJob job = jobFromSpec(parseJobSpec(line), *sub);
        const JobOutcome outcome = runExperimentJob(job, i, sub);
        outcome.ok ? ++stats.ok : ++stats.failed;
        emitRecord(out, jobRecordJson(outcome, i));
      } catch (const ConfigError& e) {
        ++stats.rejected;
        emitRecord(out, specErrorJson(i, e.what()));
      }
    }
    return stats;
  }

  // Declared before the pool, so the pool drains (its destructor runs
  // every queued task) while the window its tasks reference still lives.
  ServeWindow window(out,
                     options.queue == 0 ? 2 * workers : options.queue);
  {
    ThreadPool pool(workers);
    while (std::getline(in, line)) {
      if (blankLine(line)) continue;
      const std::size_t i = index++;
      std::optional<ExperimentJob> job;
      std::string rejection;
      try {
        job = jobFromSpec(parseJobSpec(line), *sub);
      } catch (const ConfigError& e) {
        rejection = specErrorJson(i, e.what());
      }
      const bool run = job.has_value();
      // Bounded admission: a full window blocks the reader until the
      // front record is written — input backpressure, O(queue) memory.
      if (!window.admit(i, std::move(job), std::move(rejection))) break;
      if (run) {
        // The task reports through the window, never its future.
        static_cast<void>(pool.submit([&window, sub] {
          window.runOldest(sub);
        }));
      }
    }
  }
  return window.finish(index);
}

}  // namespace dds
