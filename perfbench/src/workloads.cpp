#include "workloads.hpp"

#include <stdexcept>

#include "dds/common/rng.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/exp/job_spec.hpp"

namespace perfbench {
namespace {

using dds::JobSpec;

JobSpec::ConfigValue num(double v) {
  JobSpec::ConfigValue out;
  out.kind = JobSpec::ConfigValue::Kind::Number;
  out.number = v;
  return out;
}
JobSpec::ConfigValue flag(bool v) {
  JobSpec::ConfigValue out;
  out.kind = JobSpec::ConfigValue::Kind::Bool;
  out.boolean = v;
  return out;
}
JobSpec::ConfigValue text(std::string v) {
  JobSpec::ConfigValue out;
  out.text = std::move(v);
  return out;
}

struct SpecShape {
  std::string graph = "paper";
  std::string scheduler = "global";
  double horizon_h = 24.0;
  bool futuregrid = true;
  std::string backend = "fluid";
  double mean_rate = 5.0;
};

std::string specFor(const SpecShape& s, std::uint64_t seed) {
  JobSpec spec;
  spec.graph = s.graph;
  spec.scheduler = s.scheduler;
  spec.config.emplace_back("seed", num(static_cast<double>(seed)));
  spec.config.emplace_back("horizon_h", num(s.horizon_h));
  spec.config.emplace_back("interval_s", num(60.0));
  spec.config.emplace_back("workload.profile", text("wave"));
  spec.config.emplace_back("workload.mean_rate", num(s.mean_rate));
  spec.config.emplace_back("workload.infra_variability", flag(s.futuregrid));
  if (s.backend != "fluid") spec.config.emplace_back("backend", text(s.backend));
  if (s.scheduler.find("predictive") != std::string::npos) {
    spec.config.emplace_back("forecast.model", text("holt-winters"));
  }
  return spec.toJson();
}

BenchJob specJob(const SpecShape& s, std::uint64_t seed) {
  BenchJob job;
  job.spec = specFor(s, seed);
  return job;
}

// Seeds the program sees are drawn from the workload seed, so two
// workload seeds give disjoint job sets.
std::uint64_t jobSeed(std::mt19937_64& rng) { return 1 + rng() % 1000000; }

Workload adaptiveDay(std::uint64_t seed) {
  Workload w;
  std::mt19937_64 rng(seed ^ 0xada9ull);
  const char* kSchedulers[] = {"global", "local", "reactive-autoscaler",
                               "global-predictive"};
  // Twelve seeds: job_ms.p90 rests on the slowest few jobs, which vary
  // with the job seed; with six, it spread 0.16-0.22 over five seeds.
  for (int s = 0; s < 12; ++s) {
    const std::uint64_t job_seed = jobSeed(rng);
    for (const char* sched : kSchedulers) {
      w.jobs.push_back(specJob({.scheduler = sched}, job_seed));
    }
  }
  w.batch_copies = 1;
  w.batch_iterations_per_s = 0.15;
  w.traced_stride = 3;
  w.serve = {.light_rate = 20.0,
             .heavy_rate = 30.0,
             .capacity_lines = 64};
  return w;
}

Workload staticSweep(std::uint64_t seed) {
  Workload w;
  std::mt19937_64 rng(seed ^ 0x57a7ull);
  // One fixed layered graph, like the paper graph: the seed varies the
  // jobs run on it, not its shape.
  dds::Rng graph_rng(0x1a7e5ull);
  const auto layered = std::make_shared<const dds::Dataflow>(
      dds::makeLayeredDataflow(3, 3, 2, graph_rng));
  const char* kSchedulers[] = {"global-static", "annealing-static"};
  w.batch_copies = 1;
  w.batch_iterations_per_s = 0.15;
  w.traced_stride = 2;
  // Eight seeds: the slowest jobs (annealing on the paper graph) vary
  // with the job seed, and job_ms.p90 needs several of them to settle.
  for (int s = 0; s < 8; ++s) {
    const std::uint64_t job_seed = jobSeed(rng);
    for (bool fg : {false, true}) {
      for (const char* sched : kSchedulers) {
        w.jobs.push_back(specJob({.scheduler = sched, .futuregrid = fg},
                                 job_seed));
        BenchJob g;
        g.dataflow = layered;
        g.config.horizon_s = 24.0 * 3600.0;
        g.config.interval_s = 60.0;
        g.config.seed = job_seed;
        g.config.workload.profile = dds::ProfileKind::PeriodicWave;
        g.config.workload.infra_variability = fg;
        g.kind = dds::parseSchedulerKind(sched);
        g.label = std::string(sched) + "/layered" + (fg ? "/fg" : "/ideal");
        w.jobs.push_back(std::move(g));
      }
    }
  }
  w.serve = {.light_rate = 20.0,
             .heavy_rate = 60.0,
             .capacity_lines = 240};
  return w;
}

Workload eventLatency(std::uint64_t seed) {
  Workload w;
  std::mt19937_64 rng(seed ^ 0xe7e9ull);
  for (int s = 0; s < 16; ++s) {
    w.jobs.push_back(specJob(
        {.horizon_h = 6.0, .backend = "event", .mean_rate = 2.0},
        jobSeed(rng)));
  }
  w.batch_copies = 1;
  w.batch_iterations_per_s = 0.15;
  w.serve = {.light_rate = 8.0,
             .heavy_rate = 12.0,
             .capacity_lines = 20};
  return w;
}

Workload serveStream(std::uint64_t seed) {
  Workload w;
  std::mt19937_64 rng(seed ^ 0x5e7eull);
  const std::uint64_t seeds[] = {jobSeed(rng), jobSeed(rng), jobSeed(rng),
                                 jobSeed(rng)};
  const SpecShape kGraphs[] = {{.graph = "paper"},
                               {.graph = "chain"},
                               {.graph = "diamond"}};
  const char* kSchedulers[] = {"global", "local", "global-static"};
  for (std::uint64_t job_seed : seeds) {
    for (const SpecShape& g : kGraphs) {
      for (const char* sched : kSchedulers) {
        SpecShape s = g;
        s.scheduler = sched;
        s.horizon_h = 6.0;
        s.futuregrid = (job_seed == seeds[0] || job_seed == seeds[1]);
        w.jobs.push_back(specJob(s, job_seed));
      }
    }
  }
  w.batch_copies = 12;
  w.batch_iterations_per_s = 0.4;
  w.serve = {.light_rate = 25.0,
             .heavy_rate = 200.0,
             .capacity_lines = 560,
             .fresh_share = 0.02,
             .malformed_share = 0.05};
  return w;
}

const char* kMalformed[] = {
    "{\"v\":1,\"graph\":\"paper\"",
    "{\"v\":2,\"graph\":\"paper\"}",
    "{\"v\":1,\"bogus\":true}",
    "{\"v\":1,\"scheduler\":\"no-such-policy\"}",
    "{\"v\":1,\"config\":{\"no_such_key\":1}}",
    "{\"v\":1,\"graph\":\"layered\"}",
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "adaptive-day", "static-sweep", "event-latency", "serve-stream"};
  return names;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "adaptive-day") {
    w = adaptiveDay(seed);
  } else if (name == "static-sweep") {
    w = staticSweep(seed);
  } else if (name == "event-latency") {
    w = eventLatency(seed);
  } else if (name == "serve-stream") {
    w = serveStream(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.name = name;
  w.seed = seed;
  return w;
}

dds::ExperimentJob resolveJob(const BenchJob& job, dds::Substrate& substrate) {
  if (!job.spec.empty()) {
    return dds::jobFromSpec(dds::parseJobSpec(job.spec), substrate);
  }
  dds::ExperimentJob out;
  out.dataflow = job.dataflow.get();
  out.config = job.config;
  out.kind = job.kind;
  out.label = job.label;
  return out;
}

std::vector<std::string> serveLines(const Workload& w, std::size_t count,
                                    std::mt19937_64& rng,
                                    std::uint64_t& fresh_counter) {
  std::vector<const BenchJob*> spec_jobs;
  for (const BenchJob& j : w.jobs) {
    if (!j.spec.empty()) spec_jobs.push_back(&j);
  }
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double draw = u(rng);
    const BenchJob& pick = *spec_jobs[rng() % spec_jobs.size()];
    if (draw < w.serve.malformed_share) {
      lines.emplace_back(kMalformed[rng() % std::size(kMalformed)]);
    } else if (draw < w.serve.malformed_share + w.serve.fresh_share) {
      // Same shape, a seed no earlier line used: a trace-pool build
      // when the spec replays FutureGrid variability.
      dds::JobSpec spec = dds::parseJobSpec(pick.spec);
      for (auto& [key, value] : spec.config) {
        if (key == "seed") {
          value.number = static_cast<double>(
              2000000 + (w.seed % 100000) * 10000 + fresh_counter++);
        }
        if (key == "workload.infra_variability") value.boolean = true;
      }
      lines.push_back(spec.toJson());
    } else {
      lines.push_back(pick.spec);
    }
  }
  return lines;
}

}  // namespace perfbench
