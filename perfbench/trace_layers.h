#ifndef ROICL_PERFBENCH_TRACE_LAYERS_H_
#define ROICL_PERFBENCH_TRACE_LAYERS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"

/// \file
/// Self-time accounting over the spans of a traced pass. Spans nest by
/// interval containment on one thread track; a span's self time is its
/// duration minus the part of it its direct children cover.

namespace roicl::perfbench {

struct SpanStats {
  long long count = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed self times
};

struct TraceSummary {
  std::map<std::string, SpanStats> spans;  ///< by span name
  /// Root spans are the benchmark's own job spans (and the service's
  /// per-request span): their self time is the wall time no layer span
  /// accounts for.
  double root_s = 0.0;
  double root_self_s = 0.0;

  double unattributed_frac() const {
    return root_s > 0.0 ? root_self_s / root_s : 0.0;
  }
  double self_s(const std::string& name) const;
  double total_s(const std::string& name) const;
  long long count(const std::string& name) const;
};

/// Summarizes the complete ('X') events; flow events are ignored.
TraceSummary SummarizeTrace(const std::vector<obs::TraceEvent>& events,
                            const std::set<std::string>& root_names);

/// Durations (microseconds) of every complete span named `name`.
std::vector<double> SpanDurationsUs(const std::vector<obs::TraceEvent>& events,
                                    const std::string& name);

/// Adds the per-layer and per-span self times (divided by `jobs`) to the
/// run record. A span's layer is its module, e.g. "core.mc_dropout" for
/// `mc_dropout` or "data" for the benchmark's CSV-read span.
void NoteTraceSummary(const TraceSummary& summary, double jobs,
                      Outcome* outcome);

}  // namespace roicl::perfbench

#endif  // ROICL_PERFBENCH_TRACE_LAYERS_H_
