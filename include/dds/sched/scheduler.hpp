// Scheduler interface (paper §5-7).
//
// A Scheduler makes the two families of decisions the optimization problem
// (§6) exposes as control parameters:
//  * deploy()  — before t0: pick the initial alternate A_i^j for every PE,
//                acquire VMs, and allocate cores, based on the *estimated*
//                input rate and rated VM performance;
//  * adapt()   — at the start of each interval: react to the observed input
//                rates and observed VM performance by switching alternates,
//                scaling cores in/out, acquiring/releasing VMs.
// Schedulers mutate the CloudProvider (the core-allocation ledger) and the
// Deployment (active alternates) directly; queue state belongs to the
// simulator, so VM releases that strand buffered messages are reported as
// MigrationEvents for the engine to apply.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/time.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/monitor/probe_history.hpp"
#include "dds/obs/metrics_registry.hpp"
#include "dds/obs/trace_sink.hpp"
#include "dds/sched/resilience.hpp"
#include "dds/sim/deployment.hpp"
#include "dds/sim/simulator.hpp"

namespace dds {

struct PlanStructure;

/// Which §8 policy an experiment runs. The scheduler registry at the
/// bottom of this header is the single place that maps kinds to names and
/// instances — adding a policy means extending the enum, schedulerName()
/// and makeScheduler(), all in the sched layer.
enum class SchedulerKind {
  LocalAdaptive,        ///< local heuristic with continuous re-deployment.
  GlobalAdaptive,       ///< global heuristic with continuous re-deployment.
  LocalStatic,          ///< local heuristic, deploy once.
  GlobalStatic,         ///< global heuristic, deploy once.
  LocalAdaptiveNoDyn,   ///< local, adaptive, alternates fixed (no dynamism).
  GlobalAdaptiveNoDyn,  ///< global, adaptive, alternates fixed.
  BruteForceStatic,     ///< exhaustive static optimal (small graphs only).
  ReactiveBaseline,     ///< queue-threshold autoscaler (related work).
  AnnealingStatic,      ///< simulated-annealing static planner.
  LocalPredictive,      ///< local adaptive + forecast-driven pre-acquisition.
  GlobalPredictive,     ///< global adaptive + forecast-driven pre-acquisition.
};

/// Everything a scheduler needs to see and touch, wired once per run.
struct SchedulerEnv {
  const Dataflow* dataflow = nullptr;
  CloudProvider* cloud = nullptr;
  const MonitoringService* monitor = nullptr;
  /// Optional EWMA probe history; when set, runtime phases plan against
  /// smoothed core-power estimates instead of raw instantaneous probes.
  const ProbeHistory* probes = nullptr;
  SimConfig sim_config;
  double omega_target = 0.7;  ///< Omega-hat, the §8.2 default.
  double epsilon = 0.05;      ///< throughput tolerance (§8.2).
  /// Run tracer (null by default); schedulers emit decision, alternate-
  /// switch and straggler events through it.
  obs::Tracer tracer;
  /// Optional run metrics; schedulers bump named counters when set.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional prebuilt planner closure for this exact (dataflow, catalog)
  /// pair; search planners reuse it per deploy instead of re-extracting
  /// the tables. Immutable, safely shared across concurrent jobs.
  std::shared_ptr<const PlanStructure> plan_structure;

  void validate() const {
    DDS_REQUIRE(dataflow != nullptr, "scheduler env needs a dataflow");
    DDS_REQUIRE(cloud != nullptr, "scheduler env needs a cloud provider");
    DDS_REQUIRE(monitor != nullptr, "scheduler env needs monitoring");
    DDS_REQUIRE(omega_target > 0.0 && omega_target <= 1.0,
                "omega target out of range");
    DDS_REQUIRE(epsilon >= 0.0 && epsilon < 1.0, "epsilon out of range");
  }

  /// validate(), then this env: lets a constructor check the env before
  /// any member initializer dereferences its pointers.
  [[nodiscard]] const SchedulerEnv& validated() const {
    validate();
    return *this;
  }
};

/// What the monitoring framework reported for the last interval.
struct ObservedState {
  IntervalIndex interval = 0;   ///< the interval about to start.
  SimTime now = 0.0;            ///< its start time.
  double input_rate = 0.0;      ///< observed external rate, msgs/s.
  double average_omega = 1.0;   ///< Omega-bar so far (constraint tracker).
  const IntervalMetrics* last_interval = nullptr;  ///< may be null at t0.
  /// Predicted external rates for intervals [interval, interval + H)
  /// when the engine runs a forecaster; null otherwise (the default — so
  /// reactive runs stay bit-identical to the pre-forecast behaviour).
  const std::vector<double>* forecast = nullptr;
};

/// Buffered messages stranded on a released VM; the engine forwards this
/// to DataflowSimulator::migrateBacklog.
struct MigrationEvent {
  PeId pe;
  double backlog_fraction = 0.0;
};

/// Resilience counters a scheduler exposes for the run result (all zero
/// for policies without a resilience layer).
struct SchedulerTelemetry {
  int stragglers_quarantined = 0;   ///< VMs blacklisted and evacuated.
  int graceful_degradations = 0;    ///< off-cadence alternate downgrades.
  int acquisition_rejections = 0;   ///< acquisition attempts the provider
                                    ///< rejected against this scheduler.
  int preemption_drains = 0;        ///< spot VMs evacuated on notice.
};

/// Abstract deployment + runtime-adaptation policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Initial deployment before t0 (paper Alg. 1). Returns the alternate
  /// assignment; VM/core state is left in the CloudProvider.
  [[nodiscard]] virtual Deployment deploy(double estimated_input_rate) = 0;

  /// Runtime adaptation at the start of an interval (paper Alg. 2).
  /// Static policies keep the default no-op.
  virtual std::vector<MigrationEvent> adapt(const ObservedState& state,
                                            Deployment& deployment) {
    (void)state;
    (void)deployment;
    return {};
  }

  /// Resilience counters accumulated so far (default: none).
  [[nodiscard]] virtual SchedulerTelemetry telemetry() const { return {}; }
};

// ---------------------------------------------------------------------------
// Scheduler registry: the one place that knows every concrete policy.
// ---------------------------------------------------------------------------

/// Canonical CLI/config name of a policy ("global", "local-static", ...).
[[nodiscard]] std::string schedulerName(SchedulerKind kind);

/// Inverse of schedulerName(); throws PreconditionError on unknown names.
[[nodiscard]] SchedulerKind parseSchedulerKind(const std::string& name);

/// Every SchedulerKind, in enum order — for sweeps and round-trip tests.
[[nodiscard]] const std::vector<SchedulerKind>& allSchedulerKinds();

/// Compat alias; prefer schedulerName().
[[nodiscard]] inline std::string toString(SchedulerKind kind) {
  return schedulerName(kind);
}

/// Policy-independent tuning a caller hands the factory. Deliberately
/// plain-field (no HeuristicOptions) so this header stays below the
/// concrete schedulers in the include graph.
struct SchedulerTuning {
  double sigma = 0.0;        ///< equivalence factor for the planners.
  SimTime horizon_s = 3600;  ///< optimization period (planners need T).
  std::uint64_t seed = 42;   ///< randomized planners (annealing).
  IntervalIndex alternate_period = 2;  ///< n_a for Alg. 2.
  IntervalIndex resource_period = 1;   ///< n_r for Alg. 2.
  /// Buy cheapest-per-power instead of Alg. 1's largest-first.
  bool cheapest_class_acquisition = false;
  double max_queue_delay_s = 0.0;  ///< queue-delay SLA; 0 disables.
  /// Fraction of fresh acquisitions steered to the catalog's spot tier
  /// when one exists (seed-deterministic per acquisition); 0 disables.
  double spot_fraction = 0.0;
  ResilienceOptions resilience;
  /// Predictive scheduling (the *Predictive kinds): act on the forecast
  /// vector in ObservedState instead of reacting to the last interval
  /// only. All off by default — reactive runs stay bit-identical.
  bool predictive = false;
  /// A predicted peak must exceed the current rate by this fraction to
  /// trigger pre-acquisition (and to hold off scale-in).
  double preacquire_margin = 0.1;
  /// How far ahead pre-acquisition looks, seconds — the engine sets it to
  /// the worst-case mean provisioning delay so VMs ordered at the edge of
  /// the window are ready when their forecast peak lands.
  double preacquire_lead_s = 0.0;
  /// Score alternate choices against the whole forecast vector (mean
  /// Theta over the horizon via PlanEvaluator) on the alternate cadence.
  bool lookahead_alternates = true;
};

/// Build a scheduler for `kind` against `env`. The factory owns the
/// kind-specific wiring (strategy, adaptive/no-dynamism flags, planner
/// parameters) so engine/tools/bench code never switches on the enum.
[[nodiscard]] std::unique_ptr<Scheduler> makeScheduler(
    SchedulerKind kind, const SchedulerEnv& env,
    const SchedulerTuning& tuning = {});

}  // namespace dds
