#include "dds/faults/failure_injector.hpp"

#include <cmath>
#include <limits>

#include "dds/common/error.hpp"
#include "dds/common/rng.hpp"
#include "dds/sim/deployment.hpp"

namespace dds {

FailureInjector::FailureInjector(FailureInjectorConfig config) : config_(config) {}

SimTime FailureInjector::deathTime(VmId vm, SimTime t_start) const {
  if (!config_.enabled()) {
    return std::numeric_limits<SimTime>::infinity();
  }
  const std::uint64_t h =
      splitmix64(config_.seed ^ (0x51ed2701ull + vm.value()) * 0x2545f491ull);
  const double u = hashToUnitInterval(h);
  const double lifetime_s =
      -std::log(u) * config_.vm_mtbf_hours * kSecondsPerHour;
  return t_start + lifetime_s;
}

std::vector<FailureEvent> FailureInjector::injectUpTo(CloudProvider& cloud,
                                                      SimTime now) const {
  std::vector<FailureEvent> events;
  if (!config_.enabled()) return events;

  for (const VmId id : cloud.activeVms()) {
    const VmInstance& vm = cloud.instance(id);
    const SimTime death = deathTime(id, vm.startTime());
    if (death > now) continue;

    FailureEvent ev;
    ev.vm = id;
    ev.time = death;
    // Which PEs lose how much: the share of each PE's total cores that
    // lived on the dead VM approximates its share of queued messages.
    for (int c = 0; c < vm.coreCount(); ++c) {
      const auto owner = vm.coreOwner(c);
      if (!owner.has_value()) continue;
      bool seen = false;
      for (const auto& loss : ev.losses) {
        if (loss.pe == *owner) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      const int on_vm = vm.coresOwnedBy(*owner);
      const int total = totalCores(cloud, *owner);
      DDS_ENSURE(total >= on_vm, "core ledger inconsistent");
      ev.losses.push_back(
          {*owner, static_cast<double>(on_vm) / static_cast<double>(total)});
    }
    // Crash: cores vanish, billing stops at the failure time. The started
    // hour is still paid — a tenant-side fault, not provider-initiated.
    for (const auto& loss : ev.losses) {
      cloud.releaseAllCoresOf(id, loss.pe);
    }
    cloud.terminate(id, std::max(death, vm.startTime()),
                    TerminationReason::Crashed);
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace dds
