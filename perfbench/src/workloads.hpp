// The benchmark's workloads: which jobs each one times, and how its
// serve stream is shaped. Every input is drawn from the workload seed;
// the program under test sees only the generated specs and graphs.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dds/exp/campaign.hpp"
#include "dds/exp/substrate.hpp"

namespace perfbench {

/// One job of a workload's timed pool. Spec jobs go through the v1 job
/// spec API; graph jobs (layered DAGs, which specs cannot name) carry
/// their own dataflow, config, policy and label.
struct BenchJob {
  std::string spec;  ///< non-empty for spec jobs.
  std::shared_ptr<const dds::Dataflow> dataflow;
  dds::ExperimentConfig config;
  dds::SchedulerKind kind = dds::SchedulerKind::GlobalAdaptive;
  std::string label;
};

/// Open-loop serve settings.
struct ServePlan {
  double light_rate = 0.0;  ///< specs/s
  double heavy_rate = 0.0;
  /// Lines of each saturating stream behind serve.max_ok_rate; about
  /// half a second of serving on a 4-vCPU x86-64 virtual machine.
  std::size_t capacity_lines = 0;
  /// serve-stream only: shares of fresh-seed and malformed lines.
  double fresh_share = 0.0;
  double malformed_share = 0.0;
};

struct Workload {
  std::string name;
  std::vector<BenchJob> jobs;
  ServePlan serve;
  /// Copies of the pool per runCampaign batch (jobs_per_s).
  std::size_t batch_copies = 1;
  /// Interleaved batch iterations per second of --seconds; about half of
  /// a run on a 4-vCPU x86-64 virtual machine.
  double batch_iterations_per_s = 0.2;
  /// Each iteration traces every traced_stride-th pool job, the jobs
  /// taking turns: 2 where traced runs would take most of the run.
  std::size_t traced_stride = 1;
  std::uint64_t seed = 0;
};

/// Names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Build a workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed);

/// Resolve a job against `substrate` (spec jobs borrow its graphs).
[[nodiscard]] dds::ExperimentJob resolveJob(const BenchJob& job,
                                            dds::Substrate& substrate);

/// Draw `count` serve lines: pool specs, plus fresh-seed and malformed
/// lines at the plan's shares. `fresh_counter` makes fresh seeds unique
/// across the streams of one run.
[[nodiscard]] std::vector<std::string> serveLines(
    const Workload& w, std::size_t count, std::mt19937_64& rng,
    std::uint64_t& fresh_counter);

}  // namespace perfbench
