// Host-speed reference for timed phases.
//
// On a shared virtual machine the whole host can run 30-60% slower for
// seconds to minutes, so two runs of the same code can differ by more
// than a regression worth catching. The timed phases therefore also time
// a fixed piece of benchmark-owned work right around each measurement,
// and scale wall times to a host on which that work takes
// kNominalReferenceMs. The work is allocation-heavy container traffic:
// of the kernels tried, it tracked the simulator's slow spells best. The
// library under test never runs inside the reference, so a change to the
// library moves the scaled times in full.
//
// Under sustained load the host also takes whole slices of CPU time from
// the machine's virtual CPUs (steal time). A short reference misses
// most of it, so two-worker phases, which keep two CPUs busy for
// hundreds of milliseconds, are corrected for the steal the kernel
// reports over the phase instead; their reference is timed in thread
// CPU time, which leaves steal out.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// What the reference takes on a 4-vCPU x86-64 virtual machine at its
/// usual speed; scaled times read as wall times on that host.
inline constexpr double kNominalReferenceMs = 1.75;

/// The reference work; returns a checksum so it cannot be elided.
inline std::size_t referenceWork() {
  std::map<int, std::vector<double>> buckets;
  std::vector<std::string> names;
  for (int k = 0; k < 9000; ++k) {
    buckets[(k * 7919) % 1000].push_back(static_cast<double>(k));
    names.push_back(std::to_string(k) + "-abcdefghijklmnopqrstuvwxyz");
  }
  std::size_t sum = 0;
  for (const auto& [key, v] : buckets) sum += v.size() * static_cast<std::size_t>(key);
  for (const std::string& n : names) sum += n.size();
  return sum;
}

/// Wall milliseconds of one reference run.
inline double referenceMs() {
  const auto t = std::chrono::steady_clock::now();
  volatile std::size_t sink = referenceWork();
  (void)sink;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t)
      .count();
}

/// Milliseconds of CPU time the calling thread has used. Steal time is
/// not charged to it.
inline double threadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// CPU milliseconds of one reference run on the calling thread.
inline double referenceCpuMs() {
  const double start = threadCpuMs();
  volatile std::size_t sink = referenceWork();
  (void)sink;
  return threadCpuMs() - start;
}

/// Median of `runs` reference runs, in thread CPU time, on each of
/// `threads` threads at once: the speed probe for phases that keep that
/// many workers busy. Threads started just before a worker pool land on
/// the CPUs that pool will get, and two busy CPUs see a different host
/// than one.
inline double referenceCpuMs(std::size_t threads, std::size_t runs) {
  std::vector<std::vector<double>> ms(threads);
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&ms, k, runs] {
      for (std::size_t r = 0; r < runs; ++r) ms[k].push_back(referenceCpuMs());
    });
  }
  std::vector<double> all;
  for (std::size_t k = 0; k < threads; ++k) {
    pool[k].join();
    all.insert(all.end(), ms[k].begin(), ms[k].end());
  }
  std::nth_element(all.begin(), all.begin() + static_cast<long>(all.size() / 2), all.end());
  return all[all.size() / 2];
}

/// Keeps `threads` threads busy with the reference for `seconds`. After
/// a few idle seconds the tuning host ran the next two-worker phase at
/// about half speed for a second or more; the timed phases start after
/// this warm-up instead.
inline void warmHost(std::size_t threads, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([until] {
      while (std::chrono::steady_clock::now() < until) (void)referenceWork();
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Machine-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  double busy = 0.0;   ///< user, nice, system, irq and softirq.
  double steal = 0.0;  ///< taken by the host while a CPU had work.
};

/// Reads the counters; all zero where /proc/stat is missing.
inline CpuTicks readCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  std::istringstream fields(line);
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  fields >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  if (!fields || cpu != "cpu") return {};
  return {user + nice + system + irq + softirq, steal};
}

/// Share of the CPU time wanted between two readings that the host
/// stole: a phase that kept its CPUs busy would have taken
/// (1 - share) of its wall time without it. 0 without counters.
inline double stolenShare(const CpuTicks& before, const CpuTicks& after) {
  const double steal = after.steal - before.steal;
  const double wanted = after.busy - before.busy + steal;
  return wanted > 0.0 ? std::clamp(steal / wanted, 0.0, 0.5) : 0.0;
}

/// Host speed factor while the reference took `reference_ms`: multiply a
/// wall time by it (divide a rate by it) to get the nominal-host value.
inline double speedFactor(double reference_ms) {
  return reference_ms > 0.0 ? kNominalReferenceMs / reference_ms : 1.0;
}

}  // namespace perfbench
