#include "split.hpp"

#include <type_traits>
#include <variant>

namespace perfbench {
namespace {

using dds::obs::TraceEvent;

template <typename T, std::size_t I = 0>
constexpr std::size_t kindOf() {
  if constexpr (std::is_same_v<std::variant_alternative_t<I, TraceEvent>, T>) {
    return I;
  } else {
    return kindOf<T, I + 1>();
  }
}

constexpr std::size_t kHeader = kindOf<dds::obs::RunHeaderEvent>();
constexpr std::size_t kBegin = kindOf<dds::obs::IntervalBeginEvent>();
constexpr std::size_t kEnd = kindOf<dds::obs::IntervalEndEvent>();
constexpr std::size_t kForecast = kindOf<dds::obs::ForecastEvent>();

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

PhaseSplit splitPhases(const std::vector<Stamp>& stamps,
                       Clock::time_point start, Clock::time_point end,
                       double step_s, bool event_backend) {
  PhaseSplit out;
  out.total_ms = ms(end - start);
  out.events = stamps.size();
  for (const Stamp& s : stamps) out.emit_ms += ms(s.exit - s.enter);

  std::size_t header = stamps.size();
  std::size_t first_begin = stamps.size();
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    if (stamps[i].kind == kHeader && header == stamps.size()) header = i;
    if (stamps[i].kind == kBegin) {
      first_begin = i;
      break;
    }
  }
  const double step_ms = step_s * 1e3;
  if (header == stamps.size() || first_begin == stamps.size()) {
    out.other_ms = out.total_ms - out.emit_ms;
    return out;
  }
  const double head_gap =
      ms(stamps[first_begin].enter - stamps[header].exit);

  if (event_backend) {
    // The gauge's wall time spans the whole event loop: per-interval
    // adapt() calls and the emits made inside it included. What is left
    // of the gap is set-up and deploy before the loop and result
    // assembly after it. Emits in the gap already sit inside those two
    // spans, so only the rest are taken out of the residual.
    double emit_in_gap = 0.0;
    for (std::size_t i = header + 1; i < first_begin; ++i) {
      emit_in_gap += ms(stamps[i].exit - stamps[i].enter);
    }
    out.step_ms = step_ms;
    out.deploy_ms = head_gap - step_ms;
    out.other_ms = out.total_ms - out.deploy_ms - out.step_ms -
                   (out.emit_ms - emit_in_gap);
    return out;
  }

  out.deploy_ms = head_gap;
  // Walk interval windows: from one interval_begin's exit to the next
  // one's entry; the last window closes at the last stamp's exit.
  double windows = 0.0;
  double emit_not_end = 0.0;
  double emit_end = 0.0;
  std::size_t begin = first_begin;
  while (begin < stamps.size()) {
    std::size_t next = begin + 1;
    bool seen_forecast = false;
    for (; next < stamps.size() && stamps[next].kind != kBegin; ++next) {
      const double d = ms(stamps[next].exit - stamps[next].enter);
      if (stamps[next].kind == kEnd) {
        emit_end += d;
      } else {
        emit_not_end += d;
      }
      if (stamps[next].kind == kForecast && !seen_forecast) {
        seen_forecast = true;
        out.forecast_ms += ms(stamps[next].enter - stamps[begin].exit);
      }
    }
    windows += next < stamps.size()
                   ? ms(stamps[next].enter - stamps[begin].exit)
                   : ms(stamps.back().exit - stamps[begin].exit);
    begin = next;
  }
  out.step_ms = step_ms - emit_end;
  out.adapt_ms = windows - out.forecast_ms - step_ms - emit_not_end;
  out.other_ms = out.total_ms - out.deploy_ms - out.forecast_ms -
                 out.step_ms - out.adapt_ms - out.emit_ms;
  return out;
}

}  // namespace perfbench
