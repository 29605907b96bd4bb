// perfbench: end-to-end and per-layer benchmark of the dds library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --serve-child        (serve stdin to stdout, one worker)
//
// Prints a human-readable summary, a digest of the timing-free job
// records, and as the last line one JSON object with the metrics of the
// selected pass (end-to-end with --trace 0, per-layer with --trace 1).
// run.py builds this program and adds the hostile-line probe.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dds/common/hash.hpp"
#include "dds/common/json.hpp"
#include "dds/core/engine.hpp"
#include "dds/exp/campaign.hpp"
#include "dds/exp/serve.hpp"
#include "dds/exp/substrate.hpp"
#include "dds/obs/jsonl_sink.hpp"

#include "serve_client.hpp"
#include "reference.hpp"
#include "sinks.hpp"
#include "split.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
using pb::Clock;

namespace {

constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kBatchWorkers = 2;
/// serveCampaign's default window at two workers; the last this many
/// records of a stream are flushed by end of input, not by steady-state
/// serving, so they are checked but not timed.
constexpr std::size_t kDefaultWindow = 2 * kServeWorkers;
constexpr int kColdBuilds = 15;
constexpr std::size_t kCapacityStreams = 8;
/// runCampaign batches per batch iteration.
constexpr int kCampaignsPerIteration = 4;
/// Shares of --seconds given to the light and heavy open-loop streams.
/// Their latencies barely move between runs, so they get little time.
constexpr double kLightShare = 0.08;
constexpr double kHeavyShare = 0.05;
/// Reference runs per host-speed probe (per thread for two-worker
/// phases); the probe keeps their median.
constexpr std::size_t kReferenceRuns = 10;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double msSince(Clock::time_point t) { return secondsSince(t) * 1e3; }

/// Appends kReferenceRuns reference timings to `refs`.
void probeHost(std::vector<double>& refs) {
  for (std::size_t k = 0; k < kReferenceRuns; ++k) refs.push_back(pb::referenceMs());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

/// Operations attempted and failed, plus why each check failed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(why);
  }
};

double metricValue(const dds::ExperimentResult& r, const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// Per-interval invariants of one result: Omega in [0,1], cumulative
/// cost never decreasing, and Theta = mean Gamma - sigma * mu.
std::string invariantViolation(const dds::ExperimentResult& r) {
  const auto& iv = r.run.intervals();
  double prev_cost = 0.0;
  double gamma_sum = 0.0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    if (!(iv[i].omega >= 0.0 && iv[i].omega <= 1.0)) {
      return "omega out of [0,1] at interval " + std::to_string(i);
    }
    if (iv[i].cost_cumulative < prev_cost) {
      return "cumulative cost decreased at interval " + std::to_string(i);
    }
    prev_cost = iv[i].cost_cumulative;
    gamma_sum += iv[i].gamma;
  }
  if (iv.empty()) return "no intervals";
  const double gamma_bar = gamma_sum / static_cast<double>(iv.size());
  const double theta = gamma_bar - r.sigma * r.total_cost;
  if (std::abs(theta - r.theta) > 1e-9 * std::max(1.0, std::abs(r.theta))) {
    return "theta does not recompute from gamma, sigma and cost";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Set-up: cold substrate builds.

struct SetupTimes {
  double setup_s = 0.0;            ///< median whole cold set-up, scaled.
  double substrate_build_ms = 0.0;  ///< median arenas time, pools excluded.
  double pool_build_ms = 0.0;       ///< median single trace-pool build.
};

SetupTimes coldSetup(const pb::Workload& w) {
  std::vector<double> whole;
  std::vector<double> arenas;
  std::vector<double> pools;
  double ref_before = pb::referenceMs();
  for (int rep = 0; rep < kColdBuilds; ++rep) {
    dds::Substrate sub;
    double arena_ms = 0.0;
    const auto start = Clock::now();
    for (const pb::BenchJob& bj : w.jobs) {
      const dds::ExperimentJob job = pb::resolveJob(bj, sub);
      if (job.config.workload.infra_variability) {
        const auto before = sub.stats().pool_builds;
        const auto t = Clock::now();
        (void)sub.tracePoolsFor(job.config.seed);
        if (sub.stats().pool_builds != before) pools.push_back(msSince(t));
      }
      const auto t = Clock::now();
      (void)sub.arenasFor(*job.dataflow, job.config);
      arena_ms += msSince(t);
    }
    const double seconds = secondsSince(start);
    const double ref_after = pb::referenceMs();
    whole.push_back(seconds * pb::speedFactor(0.5 * (ref_before + ref_after)));
    ref_before = ref_after;
    arenas.push_back(arena_ms);
  }
  return {pb::median(whole), pb::median(arenas), pb::median(pools)};
}

// ---------------------------------------------------------------------------
// The warm pool: resolved jobs and their batch baseline.

struct Pool {
  std::shared_ptr<dds::Substrate> sub = std::make_shared<dds::Substrate>();
  std::vector<dds::ExperimentJob> jobs;
  std::vector<std::string> records;  ///< batch baseline, index 0.
  std::vector<dds::ExperimentResult> results;
};

Pool warmPool(const pb::Workload& w, Ledger& ledger) {
  Pool pool;
  dds::Campaign campaign;
  campaign.setSubstrate(pool.sub);
  for (const pb::BenchJob& bj : w.jobs) {
    pool.jobs.push_back(pb::resolveJob(bj, *pool.sub));
    campaign.add(pool.jobs.back());
  }
  const dds::CampaignResult batch =
      dds::runCampaign(campaign, {.jobs = kBatchWorkers});
  for (const dds::JobOutcome& o : batch.outcomes) {
    ++ledger.attempted;
    if (!o.ok) ledger.fail("job " + o.label + " threw: " + o.error);
    const std::string bad = o.ok ? invariantViolation(o.result) : "";
    if (!bad.empty()) ledger.fail("job " + o.label + ": " + bad);
    pool.records.push_back(dds::jobRecordJson(o, 0));
    pool.results.push_back(o.result);
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Timed batch phases.

/// The timed batch phases, interleaved: each iteration runs one round of
/// untraced jobs, half of its kCampaignsPerIteration runCampaign batches,
/// traced runs of every w.traced_stride-th pool job (the jobs take turns),
/// and the other half of its batches.
/// Every job run is scaled by the host speed measured right around it
/// (see reference.hpp), and each job's reruns are spread over the whole
/// run, so its median rerun measures the job rather than the host's slow
/// spells. Each two-worker batch is scaled by a two-thread reference
/// probe just before and just after it.
struct BatchTimes {
  std::vector<std::vector<double>> job_ms;     ///< [job][iteration], scaled
  std::vector<std::vector<double>> traced_ms;  ///< [job][iteration], scaled
  std::vector<double> jobs_per_s;              ///< per batch, scaled.
  std::vector<double> jobs_per_s_wall;         ///< per batch, steal removed.
  std::vector<double> stolen_share;            ///< per batch.
  std::vector<double> reference_ms;            ///< around each job run.

  /// Each job's median rerun: one value per pool job run at least once
  /// (a short run may trace fewer iterations than traced_stride), the
  /// sample the workload percentiles are taken over.
  [[nodiscard]] static std::vector<double> perJob(
      const std::vector<std::vector<double>>& per_job) {
    std::vector<double> out;
    for (const auto& v : per_job) {
      if (!v.empty()) out.push_back(pb::median(v));
    }
    return out;
  }
};

/// One untraced run: one worker, warm substrate; its record must equal
/// the batch baseline (checked after the clock stops).
double timeJob(Pool& pool, std::size_t j, Ledger& ledger) {
  const auto t = Clock::now();
  const dds::JobOutcome o = dds::runExperimentJob(pool.jobs[j], 0, pool.sub.get());
  const double ms = msSince(t);
  ++ledger.attempted;
  if (!o.ok) {
    ledger.fail("rerun threw: " + o.error);
  } else if (dds::jobRecordJson(o, 0) != pool.records[j]) {
    ledger.fail("rerun of " + pool.jobs[j].label + " changed its record");
  }
  return ms;
}

/// One traced run: JsonlTraceSink into a counting discard stream. Each
/// job's trace size must repeat exactly.
double timeTracedJob(Pool& pool, std::size_t j, std::uint64_t& bytes_seen,
                     Ledger& ledger) {
  const dds::ExperimentJob& job = pool.jobs[j];
  pb::CountingDiscardStream stream;
  dds::obs::JsonlTraceSink sink(stream);
  const auto t = Clock::now();
  try {
    const dds::SimulationEngine engine(
        *job.dataflow, job.config, pool.sub->arenasFor(*job.dataflow, job.config));
    (void)engine.run(job.kind, &sink);
  } catch (const std::exception& e) {
    const double ms = msSince(t);
    ++ledger.attempted;
    ledger.fail(std::string("traced job threw: ") + e.what());
    return ms;
  }
  const double ms = msSince(t);
  ++ledger.attempted;
  if (bytes_seen == 0) {
    bytes_seen = stream.bytes();
  } else if (bytes_seen != stream.bytes()) {
    ledger.fail("trace of " + job.label + " changed size between runs");
  }
  return ms;
}

/// The pool, repeated `copies` times, through runCampaign at two
/// workers; returns jobs/s of wall time less the host's steal.
double timeCampaign(Pool& pool, const dds::Campaign& campaign, Ledger& ledger,
                    double& stolen_share) {
  const pb::CpuTicks before = pb::readCpuTicks();
  const dds::CampaignResult r = dds::runCampaign(campaign, {.jobs = kBatchWorkers});
  stolen_share = pb::stolenShare(before, pb::readCpuTicks());
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    ++ledger.attempted;
    const auto& o = r.outcomes[i];
    if (!o.ok) {
      ledger.fail("campaign job threw: " + o.error);
    } else if (dds::jobRecordJson(o, 0) != pool.records[i % pool.jobs.size()]) {
      ledger.fail("campaign record differs from baseline");
    }
  }
  return static_cast<double>(r.outcomes.size()) / (r.wall_s * (1.0 - stolen_share));
}

/// Runs `time(j)` for pool jobs first, first + step, ... below n, timing
/// the reference before the first job and after each one; each job's
/// wall time is scaled by the mean of the two reference runs around it.
template <typename Time>
void scaledRound(std::size_t n, std::vector<std::vector<double>>& out,
                 std::vector<double>& reference_ms, Time time,
                 std::size_t first = 0, std::size_t step = 1) {
  double before = pb::referenceMs();
  for (std::size_t j = first; j < n; j += step) {
    const double ms = time(j);
    const double after = pb::referenceMs();
    const double around = 0.5 * (before + after);
    out[j].push_back(ms * pb::speedFactor(around));
    reference_ms.push_back(around);
    before = after;
  }
}

/// Runs `after(it)` after each iteration (the serve streams, spread over
/// the run between iterations).
template <typename After>
BatchTimes timeBatch(Pool& pool, const pb::Workload& w, std::size_t iterations,
                     Ledger& ledger, After after) {
  const std::size_t n = pool.jobs.size();
  dds::Campaign campaign;
  campaign.setSubstrate(pool.sub);
  for (std::size_t c = 0; c < w.batch_copies; ++c) {
    for (const auto& job : pool.jobs) campaign.add(job);
  }
  BatchTimes out;
  out.job_ms.resize(n);
  out.traced_ms.resize(n);
  std::vector<std::uint64_t> trace_bytes(n, 0);
  const auto campaigns = [&](int count) {
    for (int batch = 0; batch < count; ++batch) {
      const double ref_before = pb::referenceCpuMs(kBatchWorkers, kReferenceRuns);
      double stolen = 0.0;
      const double jobs_per_s = timeCampaign(pool, campaign, ledger, stolen);
      const double ref_after = pb::referenceCpuMs(kBatchWorkers, kReferenceRuns);
      out.stolen_share.push_back(stolen);
      out.jobs_per_s.push_back(jobs_per_s /
                               pb::speedFactor(0.5 * (ref_before + ref_after)));
      out.jobs_per_s_wall.push_back(jobs_per_s);
    }
  };
  for (std::size_t it = 0; it < iterations; ++it) {
    scaledRound(n, out.job_ms, out.reference_ms,
                [&](std::size_t j) { return timeJob(pool, j, ledger); });
    campaigns(kCampaignsPerIteration / 2);
    scaledRound(
        n, out.traced_ms, out.reference_ms,
        [&](std::size_t j) { return timeTracedJob(pool, j, trace_bytes[j], ledger); },
        it % w.traced_stride, w.traced_stride);
    campaigns(kCampaignsPerIteration - kCampaignsPerIteration / 2);
    after(it);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Host-stamped traced pass (per-layer split).

struct SplitTotals {
  std::vector<pb::PhaseSplit> jobs;
  std::vector<double> emit_us;  ///< per-job mean emit() time.
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  double forecast_ms_sum = 0.0;
  std::size_t forecast_jobs = 0;
};

SplitTotals stampedPass(Pool& pool, double budget_s, Ledger& ledger) {
  SplitTotals out;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    // Whole rounds only, so every pool job weighs the same.
    if (i % pool.jobs.size() == 0 && i > 0 && secondsSince(start) >= budget_s) {
      break;
    }
    const dds::ExperimentJob& job = pool.jobs[i % pool.jobs.size()];
    pb::CountingDiscardStream stream;
    dds::obs::JsonlTraceSink jsonl(stream);
    pb::HostStampSink sink(jsonl);
    dds::ExperimentResult r;
    const auto t0 = Clock::now();
    try {
      const dds::SimulationEngine engine(
          *job.dataflow, job.config, pool.sub->arenasFor(*job.dataflow, job.config));
      r = engine.run(job.kind, &sink);
    } catch (const std::exception& e) {
      ++ledger.attempted;
      ledger.fail(std::string("stamped job threw: ") + e.what());
      continue;
    }
    const auto t1 = Clock::now();
    ++ledger.attempted;
    const bool event = job.config.backend == dds::SimBackend::Event;
    double step_s = 0.0;
    if (event) {
      const double drained = metricValue(r, "eventsim.arrivals") +
                             metricValue(r, "eventsim.deliveries") +
                             metricValue(r, "eventsim.completions");
      step_s = pb::ratio(drained, metricValue(r, "eventsim.events_per_s"));
    } else {
      step_s = pb::ratio(static_cast<double>(r.run.intervals().size()),
                         metricValue(r, "fluid.intervals_per_s"));
    }
    const pb::PhaseSplit s = pb::splitPhases(sink.stamps(), t0, t1, step_s, event);
    out.jobs.push_back(s);
    out.emit_us.push_back(pb::ratio(s.emit_ms * 1e3, static_cast<double>(s.events)));
    out.bytes += stream.bytes();
    out.events += s.events;
    if (job.config.forecast.enabled()) {
      out.forecast_ms_sum += s.forecast_ms;
      ++out.forecast_jobs;
    }
    if (stream.lines() != s.events) {
      ledger.fail("JSONL line count differs from event count");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serve phases.

struct ServeResult {
  std::vector<double> latency_ms;  ///< timed lines only.
  std::vector<double> late_ms;
  std::vector<double> outstanding;
  double achieved_rate = 0.0;   ///< records over the stream's wall time.
  double steady_rate = 0.0;     ///< records/s with the window full.
  double stolen_share = 0.0;    ///< of the CPU time wanted while it ran.
  std::uint64_t pool_hits = 0;  ///< trace-pool lookups during the stream.
  std::uint64_t pool_builds = 0;
};

/// The batch twin of one serve line: its rejection record or the record
/// runCampaign gives the same spec.
class BatchOracle {
 public:
  explicit BatchOracle(const Pool& pool, const pb::Workload& w) {
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      if (!w.jobs[j].spec.empty()) known_[w.jobs[j].spec] = pool.records[j];
    }
  }

  /// Expected record for `line` at stream index `index`.
  std::string expected(const std::string& line, std::size_t index) {
    auto it = known_.find(line);
    if (it == known_.end()) it = known_.emplace(line, batchRecord(line)).first;
    return withIndex(it->second, index);
  }

 private:
  static std::string batchRecord(const std::string& line) {
    dds::Campaign campaign;
    try {
      campaign.addSpec(dds::parseJobSpec(line));
    } catch (const dds::ConfigError& e) {
      return dds::specErrorJson(0, e.what());
    }
    const dds::CampaignResult r = dds::runCampaign(campaign, {.jobs = 1});
    return dds::jobRecordJson(r.outcomes.front(), 0);
  }
  /// Baselines are rendered at index 0; the serve loop numbers by line.
  static std::string withIndex(const std::string& record, std::size_t index) {
    static const std::string kZero = "\"index\":0,";
    const std::size_t at = record.find(kZero);
    if (at == std::string::npos) return record;
    return record.substr(0, at) + "\"index\":" + std::to_string(index) + "," +
           record.substr(at + kZero.size());
  }

  std::map<std::string, std::string> known_;
};

/// One stream of `lines` due at `due` through serveCampaign at two
/// workers, checked against the batch path once it has ended.
ServeResult serveStream(const pb::Workload& w, BatchOracle& oracle,
                        const std::vector<std::string>& lines,
                        const std::vector<double>& due, Ledger& ledger) {
  const std::size_t n = lines.size();
  // Each stream gets its own substrate, warmed with the pool's arenas
  // before the clock starts: pool specs hit, fresh seeds build, and the
  // fresh pools are freed with the stream.
  dds::ServeOptions options;
  options.jobs = kServeWorkers;
  options.substrate = std::make_shared<dds::Substrate>();
  for (const pb::BenchJob& bj : w.jobs) {
    if (bj.spec.empty()) continue;
    const dds::ExperimentJob job = pb::resolveJob(bj, *options.substrate);
    (void)options.substrate->arenasFor(*job.dataflow, job.config);
  }
  const dds::Substrate::Stats warm = options.substrate->stats();
  const pb::CpuTicks before = pb::readCpuTicks();
  const pb::ServeRun run = pb::runServeStream(lines, due, options);
  const double stolen_share = pb::stolenShare(before, pb::readCpuTicks());

  ledger.attempted += n;
  if (!run.error.empty()) ledger.fail("serve loop threw: " + run.error);
  // Correctness, after the stream: one record per line, in line order,
  // byte-identical to the batch path.
  for (std::size_t k = 0; k < n; ++k) {
    if (k >= run.records.size()) {
      ledger.fail("serve record missing for line " + std::to_string(k));
    } else if (run.records[k] != oracle.expected(lines[k], k)) {
      ledger.fail("serve record " + std::to_string(k) +
                  " differs from batch (or is out of order)");
    }
  }
  if (run.records.size() > n) ledger.fail("serve emitted extra records");

  ServeResult out;
  const std::size_t timed = n - kDefaultWindow;
  out.latency_ms.assign(run.latency_ms.begin(),
                        run.latency_ms.begin() +
                            static_cast<long>(std::min(timed, run.latency_ms.size())));
  out.late_ms = run.late_ms;
  out.outstanding = run.outstanding;
  out.achieved_rate = pb::ratio(static_cast<double>(run.records.size()), run.wall_s);
  out.steady_rate = run.steady_rate;
  out.stolen_share = stolen_share;
  const dds::Substrate::Stats after = options.substrate->stats();
  out.pool_hits = after.pool_hits - warm.pool_hits;
  out.pool_builds = after.pool_builds - warm.pool_builds;
  return out;
}

/// An open-loop stream at `rate` for about `seconds`, and at least five
/// windows of lines, so a p90 over the timed ones rests on more than one.
ServeResult serveOpenLoop(const pb::Workload& w, BatchOracle& oracle, double rate,
                          double seconds, const char* tag, std::mt19937_64& rng,
                          std::uint64_t& fresh_counter, Ledger& ledger) {
  const auto n = static_cast<std::size_t>(
      std::max(5.0 * kDefaultWindow, std::round(rate * seconds)));
  const std::vector<std::string> lines = pb::serveLines(w, n, rng, fresh_counter);
  const std::vector<double> due = pb::openLoopSchedule(n, rate, rng());
  const ServeResult out = serveStream(w, oracle, lines, due, ledger);
  std::cout << "  serve " << tag << " " << rate << "/s: " << n << " lines ("
            << out.latency_ms.size() << " timed, "
            << pb::samplesBeyond(out.latency_ms.size(), 90)
            << " beyond p90), p50 " << pb::percentile(out.latency_ms, 50)
            << " ms, p90 " << pb::percentile(out.latency_ms, 90)
            << " ms, achieved " << out.achieved_rate << "/s\n";
  return out;
}

/// Serve capacity: every line due at once, so the serve loop always
/// finds its next line waiting and runs at its window's pace. Returns
/// records per second while the window is full (steadyRate), less the
/// host's steal and scaled to nominal host speed.
double serveCapacity(const pb::Workload& w, BatchOracle& oracle,
                     std::mt19937_64& rng, std::uint64_t& fresh_counter,
                     Ledger& ledger) {
  const std::size_t n = w.serve.capacity_lines;
  const std::vector<std::string> lines = pb::serveLines(w, n, rng, fresh_counter);
  const double ref_before = pb::referenceCpuMs(kServeWorkers, kReferenceRuns);
  const ServeResult out =
      serveStream(w, oracle, lines, std::vector<double>(n, 0.0), ledger);
  const double ref_after = pb::referenceCpuMs(kServeWorkers, kReferenceRuns);
  const double steal_free = out.steady_rate / (1.0 - out.stolen_share);
  const double rate = steal_free / pb::speedFactor(0.5 * (ref_before + ref_after));
  std::cout << "  serve capacity: " << n << " lines at once, "
            << out.steady_rate << "/s wall with the window full, " << out.stolen_share
            << " of CPU time stolen, " << rate << "/s scaled\n";
  return rate;
}

// ---------------------------------------------------------------------------
// Output.

class MetricsOut {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) os << ',';
      os << '"' << rows_[i].name << "\":{\"value\":"
         << dds::jsonNumber(std::isfinite(rows_[i].value) ? rows_[i].value : 0.0)
         << ",\"unit\":\"" << rows_[i].unit << "\"}";
    }
    os << '}';
    return os.str();
  }
  void print(std::ostream& os) const {
    for (const auto& r : rows_) {
      os << "  " << r.name << " = " << r.value << " " << r.unit << "\n";
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a over every baseline record and every interval's timing-free
/// series (Omega, Gamma, cumulative cost, VMs, cores), in pool order.
std::string recordsDigest(const Pool& pool) {
  std::uint64_t h = dds::kFnv1aOffsetBasis;
  for (std::size_t j = 0; j < pool.records.size(); ++j) {
    for (char c : pool.records[j]) {
      h = dds::fnv1aByte(h, static_cast<std::uint8_t>(c));
    }
    for (const auto& iv : pool.results[j].run.intervals()) {
      for (double v : {iv.omega, iv.gamma, iv.cost_cumulative}) {
        h = dds::fnv1aWord(h, std::bit_cast<std::uint64_t>(v));
      }
      h = dds::fnv1aWord(h, static_cast<std::uint64_t>(iv.active_vms));
      h = dds::fnv1aWord(h, static_cast<std::uint64_t>(iv.allocated_cores));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --serve-child\n";
  return 2;
}

int run(const Args& args) {
  const pb::Workload w = pb::makeWorkload(args.workload, args.seed);
  const double S = args.seconds;
  Ledger ledger;
  MetricsOut m;

  const SetupTimes setup = coldSetup(w);
  Pool pool = warmPool(w, ledger);
  std::cout << "workload " << w.name << " seed " << args.seed << ": "
            << pool.jobs.size() << " jobs in the timed pool\n";
  std::cout << "records_digest " << recordsDigest(pool) << "\n";

  BatchOracle oracle(pool, w);
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 17);
  std::uint64_t fresh_counter = 0;

  if (args.trace == 0) {
    const auto iterations = static_cast<std::size_t>(
        std::max(2.0, std::round(w.batch_iterations_per_s * S)));
    // Capacity streams run between batch iterations, so both kinds of
    // sample span the run. The open-loop streams come last: they leave
    // the host idle for seconds, and a two-worker phase right after such
    // a spell ran at about half speed.
    std::vector<double> capacity;
    pb::warmHost(kBatchWorkers, 1.0);
    const BatchTimes bt =
        timeBatch(pool, w, iterations, ledger, [&](std::size_t it) {
          // Hand freed heap back between phases, so peak_rss_mb is the
          // largest phase's footprint rather than allocator history.
          malloc_trim(0);
          const std::size_t due = (it + 1) * kCapacityStreams / iterations;
          while (capacity.size() < due) {
            capacity.push_back(serveCapacity(w, oracle, rng, fresh_counter, ledger));
            malloc_trim(0);
          }
        });
    const ServeResult light = serveOpenLoop(w, oracle, w.serve.light_rate, kLightShare * S,
                                            "light", rng, fresh_counter, ledger);
    const ServeResult heavy = serveOpenLoop(w, oracle, w.serve.heavy_rate, kHeavyShare * S,
                                            "heavy", rng, fresh_counter, ledger);
    std::cout << "samples: " << iterations << " interleaved iterations, each "
              << pool.jobs.size() << " untraced jobs, " << kCampaignsPerIteration
              << " campaigns of " << w.batch_copies * pool.jobs.size() << " jobs and "
              << (pool.jobs.size() + w.traced_stride - 1) / w.traced_stride
              << " traced jobs; job percentiles are over "
              << "the " << pool.jobs.size() << " jobs' median reruns\n"
              << "host reference: median " << pb::median(bt.reference_ms)
              << " ms around job runs (nominal " << pb::kNominalReferenceMs
              << " ms); campaign batches: median " << pb::median(bt.stolen_share)
              << " of CPU time stolen, " << pb::median(bt.jobs_per_s_wall)
              << " jobs/s wall less steal, " << pb::median(bt.jobs_per_s) << " scaled\n"
              << "setup_s, job times and rates below are scaled to "
                 "nominal, serve latencies are wall times\n";
    m.add("setup_s", setup.setup_s, "s");
    const std::vector<double> job_ms = BatchTimes::perJob(bt.job_ms);
    m.add("job_ms.p50", pb::hdPercentile(job_ms, 50), "ms");
    m.add("job_ms.p90", pb::hdPercentile(job_ms, 90), "ms");
    m.add("jobs_per_s", pb::median(bt.jobs_per_s), "1/s");
    m.add("traced_job_ms.p50", pb::hdPercentile(BatchTimes::perJob(bt.traced_ms), 50),
          "ms");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("serve.light.p50_ms", pb::percentile(light.latency_ms, 50), "ms");
    m.add("serve.light.p90_ms", pb::percentile(light.latency_ms, 90), "ms");
    m.add("serve.heavy.p50_ms", pb::percentile(heavy.latency_ms, 50), "ms");
    m.add("serve.heavy.p90_ms", pb::percentile(heavy.latency_ms, 90), "ms");
    m.add("serve.max_ok_rate", pb::median(capacity), "1/s");
  } else {
    // Exact counters from the batch baseline, per interval or per job.
    double rebuilds = 0, fluid_iv = 0, index_rebuilds = 0, event_iv = 0;
    double plans = 0, memo_hits = 0, memo_lookups = 0, scale_outs = 0;
    double vms = 0, refreshes = 0;
    std::size_t event_jobs = 0;
    for (std::size_t j = 0; j < pool.jobs.size(); ++j) {
      const dds::ExperimentResult& r = pool.results[j];
      const auto iv = static_cast<double>(r.run.intervals().size());
      if (pool.jobs[j].config.backend == dds::SimBackend::Event) {
        index_rebuilds += metricValue(r, "eventsim.core_index_rebuilds");
        refreshes += metricValue(r, "eventsim.route_refreshes");
        event_iv += iv;
        ++event_jobs;
      } else {
        rebuilds += metricValue(r, "fluid.kernel_rebuilds");
        fluid_iv += iv;
      }
      plans += metricValue(r, "sched.plans_examined");
      memo_hits += metricValue(r, "sched.evaluator_memo_hits");
      memo_lookups += metricValue(r, "sched.evaluator_memo_lookups");
      scale_outs += metricValue(r, "sched.scale_outs");
      vms += metricValue(r, "cloud.vms_acquired");
    }
    const auto jobs = static_cast<double>(pool.jobs.size());

    std::vector<double> refs;
    probeHost(refs);
    const SplitTotals st = stampedPass(pool, 0.5 * S, ledger);
    probeHost(refs);
    std::vector<double> eps;
    for (const auto& r : pool.results) {
      const double v = metricValue(r, "eventsim.events_per_s");
      if (v > 0.0) eps.push_back(v);
    }
    const ServeResult light = serveOpenLoop(w, oracle, w.serve.light_rate, kLightShare * S,
                                            "light", rng, fresh_counter, ledger);
    const ServeResult heavy = serveOpenLoop(w, oracle, w.serve.heavy_rate, kHeavyShare * S,
                                            "heavy", rng, fresh_counter, ledger);

    // Serve-reader costs per line: spec parse + resolve, record render.
    std::vector<dds::JobOutcome> outcomes(pool.jobs.size());
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      outcomes[j].ok = true;
      outcomes[j].kind = pool.jobs[j].kind;
      outcomes[j].result = pool.results[j];
    }
    std::vector<double> parse_us;
    std::vector<double> render_us;
    const auto micro_start = Clock::now();
    while (secondsSince(micro_start) < 0.05 * S || parse_us.size() < 100) {
      for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        if (!w.jobs[j].spec.empty()) {
          const auto t = Clock::now();
          (void)dds::jobFromSpec(dds::parseJobSpec(w.jobs[j].spec), *pool.sub);
          parse_us.push_back(msSince(t) * 1e3);
        }
        const auto t = Clock::now();
        const std::string rec = dds::jobRecordJson(outcomes[j], j);
        render_us.push_back(msSince(t) * 1e3);
        if (rec.empty()) ledger.fail("empty record");
      }
    }

    double deploy = 0, adapt = 0, step = 0, emit = 0, other = 0, total = 0;
    for (const auto& s : st.jobs) {
      deploy += s.deploy_ms;
      adapt += s.adapt_ms;
      step += s.step_ms;
      emit += s.emit_ms;
      other += s.other_ms;
      total += s.total_ms;
    }
    const double forecast_total = st.forecast_ms_sum;
    const auto nj = static_cast<double>(std::max<std::size_t>(st.jobs.size(), 1));
    std::cout << "traced split over " << st.jobs.size() << " jobs (share of "
              << total / nj << " ms per traced job): deploy "
              << pb::ratio(deploy, total) << ", adapt " << pb::ratio(adapt, total)
              << ", forecast " << pb::ratio(forecast_total, total) << ", step "
              << pb::ratio(step, total) << ", emit " << pb::ratio(emit, total)
              << ", other " << pb::ratio(other, total) << "\n";

    m.add("sched.adapt_ms", adapt / nj, "ms");
    m.add("sched.deploy_ms", deploy / nj, "ms");
    m.add("sched.plans_examined", plans / jobs, "count");
    m.add("sched.memo_hit_ratio", pb::ratio(memo_hits, memo_lookups), "ratio");
    m.add("forecast.ms",
          pb::ratio(forecast_total, static_cast<double>(st.forecast_jobs)), "ms");
    m.add("sim.step_ms", step / nj, "ms");
    m.add("sim.rebuilds_per_interval", pb::ratio(rebuilds, fluid_iv), "count");
    m.add("eventsim.events_per_s", pb::median(eps), "1/s");
    m.add("eventsim.index_rebuilds_per_interval",
          pb::ratio(index_rebuilds, event_iv), "count");
    m.add("eventsim.route_refreshes",
          pb::ratio(refreshes, static_cast<double>(event_jobs)), "count");
    m.add("obs.events_per_job", static_cast<double>(st.events) / nj, "count");
    m.add("obs.emit_us", pb::median(st.emit_us), "us");
    m.add("obs.emit_ms", emit / nj, "ms");
    m.add("obs.bytes_per_event",
          pb::ratio(static_cast<double>(st.bytes), static_cast<double>(st.events)),
          "B");
    m.add("split.coverage", pb::ratio(total - other, total), "ratio");
    m.add("core.other_ms", other / nj, "ms");
    m.add("exp.substrate_build_ms", setup.substrate_build_ms, "ms");
    m.add("trace.pool_build_ms", setup.pool_build_ms, "ms");
    m.add("exp.pool_hit_ratio",
          pb::ratio(static_cast<double>(light.pool_hits),
                    static_cast<double>(light.pool_hits + light.pool_builds)),
          "ratio");
    m.add("exp.spec_parse_us", pb::median(parse_us), "us");
    m.add("exp.record_json_us", pb::median(render_us), "us");
    std::vector<double> outstanding = light.outstanding;
    m.add("exp.serve_outstanding.p50", pb::median(outstanding), "count");
    std::vector<double> late = light.late_ms;
    late.insert(late.end(), heavy.late_ms.begin(), heavy.late_ms.end());
    m.add("serve.gen_late_ms", pb::median(late), "ms");
    m.add("sched.scale_outs", scale_outs / jobs, "count");
    m.add("cloud.vms_acquired", vms / jobs, "count");
    m.add("host.reference_ms", pb::median(refs), "ms");
  }

  m.print(std::cout);
  for (const std::string& p : ledger.problems) std::cout << "FAILED: " << p << "\n";
  std::cout << "{\"correct\":" << (ledger.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << ledger.attempted
            << ",\"failed\":" << ledger.failed << ",\"metrics\":" << m.json()
            << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--serve-child") {
      // One short-lived serve process per hostile line (see run.py).
      dds::ServeOptions options;
      options.jobs = 1;
      const dds::ServeStats st = dds::serveCampaign(std::cin, std::cout, options);
      return st.specs == st.ok + st.rejected ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      args.trace = std::stoi(v);
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    return usage();
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
