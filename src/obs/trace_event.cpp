#include "dds/obs/trace_event.hpp"

#include "dds/common/json.hpp"
#include "dds/obs/jsonl_sink.hpp"

namespace dds::obs {

namespace {

// Wire names double as the "ev" discriminator TraceReader dispatches
// on; changing one is a trace-format break.
std::string_view wireName(const RunHeaderEvent&) { return "run_header"; }
std::string_view wireName(const IntervalBeginEvent&) {
  return "interval_begin";
}
std::string_view wireName(const IntervalEndEvent&) { return "interval_end"; }
std::string_view wireName(const VmAcquireEvent&) { return "vm_acquire"; }
std::string_view wireName(const VmReleaseEvent&) { return "vm_release"; }
std::string_view wireName(const AcquisitionFailureEvent&) {
  return "acquisition_failure";
}
std::string_view wireName(const CoreAllocEvent&) { return "core_alloc"; }
std::string_view wireName(const AlternateSwitchEvent&) {
  return "alternate_switch";
}
std::string_view wireName(const StragglerQuarantineEvent&) {
  return "straggler_quarantine";
}
std::string_view wireName(const StragglerRecoveryEvent&) {
  return "straggler_recovery";
}
std::string_view wireName(const FaultInjectionEvent&) {
  return "fault_injection";
}
std::string_view wireName(const ProvisioningCompleteEvent&) {
  return "provisioning_complete";
}
std::string_view wireName(const PreemptionNoticeEvent&) {
  return "preemption_notice";
}
std::string_view wireName(const PreemptionEvent&) { return "preemption"; }
std::string_view wireName(const MigrationBeginEvent&) {
  return "migration_begin";
}
std::string_view wireName(const MigrationEndEvent&) {
  return "migration_end";
}
std::string_view wireName(const OmegaViolationEvent&) {
  return "omega_violation";
}
std::string_view wireName(const SchedulerDecisionEvent&) {
  return "scheduler_decision";
}
std::string_view wireName(const ForecastEvent&) { return "forecast"; }
std::string_view wireName(const PreAcquireEvent&) { return "preacquire"; }

void writeBody(JsonWriter& w, const RunHeaderEvent& e) {
  w.key("scheduler").value(e.scheduler);
  w.key("seed").value(e.seed);
  w.key("sigma").value(e.sigma);
  w.key("omega_target").value(e.omega_target);
  w.key("epsilon").value(e.epsilon);
  w.key("horizon_s").value(e.horizon_s);
  w.key("interval_s").value(e.interval_s);
  w.key("backend").value(e.backend);
}

void writeBody(JsonWriter& w, const IntervalBeginEvent& e) {
  w.key("t").value(e.t);
  w.key("interval").value(e.interval);
  w.key("input_rate").value(e.input_rate);
}

void writeBody(JsonWriter& w, const IntervalEndEvent& e) {
  w.key("t").value(e.t);
  w.key("interval").value(e.interval);
  w.key("omega").value(e.omega);
  w.key("omega_bar").value(e.omega_bar);
  w.key("gamma").value(e.gamma);
  w.key("cost").value(e.cost);
  w.key("utilization").value(e.utilization);
  w.key("backlog_msgs").value(e.backlog_msgs);
  w.key("active_vms").value(e.active_vms);
  w.key("allocated_cores").value(e.allocated_cores);
}

void writeBody(JsonWriter& w, const VmAcquireEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
  w.key("class").value(e.vm_class);
  w.key("cores").value(e.cores);
  w.key("price_per_hour").value(e.price_per_hour);
  w.key("ready").value(e.ready);
}

void writeBody(JsonWriter& w, const VmReleaseEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
  w.key("class").value(e.vm_class);
  w.key("billed_cost").value(e.billed_cost);
}

void writeBody(JsonWriter& w, const AcquisitionFailureEvent& e) {
  w.key("t").value(e.t);
  w.key("class").value(e.vm_class);
}

void writeBody(JsonWriter& w, const CoreAllocEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
  w.key("pe").value(std::uint64_t{e.pe});
  w.key("delta").value(e.delta);
}

void writeBody(JsonWriter& w, const AlternateSwitchEvent& e) {
  w.key("t").value(e.t);
  w.key("pe").value(std::uint64_t{e.pe});
  w.key("from").value(std::uint64_t{e.from});
  w.key("to").value(std::uint64_t{e.to});
  w.key("gamma_from").value(e.gamma_from);
  w.key("gamma_to").value(e.gamma_to);
}

void writeBody(JsonWriter& w, const StragglerQuarantineEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
  w.key("smoothed_ratio").value(e.smoothed_ratio);
  w.key("evacuated_cores").value(e.evacuated_cores);
}

void writeBody(JsonWriter& w, const StragglerRecoveryEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
}

void writeBody(JsonWriter& w, const FaultInjectionEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
  w.key("family").value(e.family);
  w.key("messages_lost").value(e.messages_lost);
}

void writeBody(JsonWriter& w, const ProvisioningCompleteEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
}

void writeBody(JsonWriter& w, const PreemptionNoticeEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
  w.key("preempt_at").value(e.preempt_at);
}

void writeBody(JsonWriter& w, const PreemptionEvent& e) {
  w.key("t").value(e.t);
  w.key("vm").value(std::uint64_t{e.vm});
  w.key("messages_lost").value(e.messages_lost);
}

void writeBody(JsonWriter& w, const MigrationBeginEvent& e) {
  w.key("t").value(e.t);
  w.key("pe").value(std::uint64_t{e.pe});
  w.key("backlog_fraction").value(e.backlog_fraction);
  w.key("downtime_s").value(e.downtime_s);
}

void writeBody(JsonWriter& w, const MigrationEndEvent& e) {
  w.key("t").value(e.t);
  w.key("pe").value(std::uint64_t{e.pe});
}

void writeBody(JsonWriter& w, const OmegaViolationEvent& e) {
  w.key("t").value(e.t);
  w.key("interval").value(e.interval);
  w.key("omega").value(e.omega);
  w.key("omega_target").value(e.omega_target);
}

void writeBody(JsonWriter& w, const SchedulerDecisionEvent& e) {
  w.key("t").value(e.t);
  w.key("interval").value(e.interval);
  w.key("phase").value(e.phase);
  w.key("action").value(e.action);
  w.key("omega").value(e.omega);
  w.key("omega_bar").value(e.omega_bar);
  w.key("theta").value(e.theta);
  w.key("rejected").beginArray();
  for (const RejectedPlan& r : e.rejected) {
    w.beginObject();
    w.key("plan").value(r.plan);
    w.key("theta").value(r.theta);
    w.endObject();
  }
  w.endArray();
}

void writeBody(JsonWriter& w, const ForecastEvent& e) {
  w.key("t").value(e.t);
  w.key("interval").value(e.interval);
  w.key("model").value(e.model);
  w.key("rates").beginArray();
  for (const double r : e.rates) w.value(r);
  w.endArray();
}

void writeBody(JsonWriter& w, const PreAcquireEvent& e) {
  w.key("t").value(e.t);
  w.key("interval").value(e.interval);
  w.key("peak_interval").value(e.peak_interval);
  w.key("peak_rate").value(e.peak_rate);
  w.key("lead_s").value(e.lead_s);
  w.key("vms").value(e.vms);
  w.key("ready_by").value(e.ready_by);
}

}  // namespace

std::string_view traceEventName(const TraceEvent& e) {
  return std::visit([](const auto& ev) { return wireName(ev); }, e);
}

SimTime traceEventTime(const TraceEvent& e) {
  return std::visit(
      [](const auto& ev) -> SimTime {
        if constexpr (std::is_same_v<std::decay_t<decltype(ev)>,
                                     RunHeaderEvent>) {
          return 0.0;
        } else {
          return ev.t;
        }
      },
      e);
}

void appendTraceEventJson(std::string& out, const TraceEvent& event) {
  JsonWriter w(out,
               {.style = JsonWriter::Style::Compact,
                .non_finite = JsonWriter::NonFinitePolicy::StringSentinel});
  w.beginObject();
  w.key("ev").value(traceEventName(event));
  std::visit([&w](const auto& ev) { writeBody(w, ev); }, event);
  w.endObject();
}

std::string traceEventJson(const TraceEvent& event) {
  std::string line;
  appendTraceEventJson(line, event);
  return line;
}

}  // namespace dds::obs
