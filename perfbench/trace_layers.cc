#include "trace_layers.h"

#include <algorithm>
#include <cstdint>

namespace roicl::perfbench {
namespace {

/// The layer (module) a span belongs to.
std::string LayerOf(const std::string& span_name) {
  struct Prefix {
    const char* prefix;
    const char* layer;
  };
  // First match wins, so longer prefixes come first.
  static const Prefix kPrefixes[] = {
      {"bench.job", "unattributed"},
      {"bench.data.", "data"},
      {"bench.pipeline.", "pipeline"},
      {"bench.core.", "core.greedy"},
      {"bench.alloc.", "alloc"},
      {"bench.campaign.", "campaign"},
      {"bench.service.", "pipeline.service"},
      {"bench.monitor.", "monitor"},
      {"mc_dropout", "core.mc_dropout"},
      {"predict", "core.rdrp"},
      {"allocate", "core.greedy"},
      {"alloc.", "alloc"},
      {"campaign.", "campaign"},
      {"serve.", "pipeline.service"},
      {"monitor.", "monitor"},
      {"conformal.", "core.conformal"},
      {"roi_star.", "core.roi_star"},
  };
  for (const Prefix& p : kPrefixes) {
    if (span_name.rfind(p.prefix, 0) == 0) return p.layer;
  }
  return "other";
}

/// Self time per layer, summed over the layer's spans.
std::map<std::string, double> LayerSelfTimes(const TraceSummary& summary) {
  std::map<std::string, double> layers;
  for (const auto& [name, stats] : summary.spans) {
    layers[LayerOf(name)] += stats.self_s;
  }
  return layers;
}

}  // namespace

double TraceSummary::self_s(const std::string& name) const {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_s;
}

double TraceSummary::total_s(const std::string& name) const {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

long long TraceSummary::count(const std::string& name) const {
  auto it = spans.find(name);
  return it == spans.end() ? 0 : it->second.count;
}

TraceSummary SummarizeTrace(const std::vector<obs::TraceEvent>& events,
                            const std::set<std::string>& root_names) {
  // Group complete spans by thread track.
  std::map<uint32_t, std::vector<const obs::TraceEvent*>> by_thread;
  for (const obs::TraceEvent& event : events) {
    if (event.phase == 'X') by_thread[event.tid].push_back(&event);
  }

  TraceSummary summary;
  for (auto& [tid, track] : by_thread) {
    // Parents before children: earlier start first, longer span first on
    // a tie.
    std::sort(track.begin(), track.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<double> self(track.size());
    std::vector<size_t> stack;  // indices of open ancestors
    for (size_t i = 0; i < track.size(); ++i) {
      const obs::TraceEvent& event = *track[i];
      self[i] = static_cast<double>(event.dur_us);
      while (!stack.empty()) {
        const obs::TraceEvent& top = *track[stack.back()];
        if (event.ts_us < top.ts_us + top.dur_us) break;
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Clamp to the parent: microsecond rounding can push a child's
        // end one tick past its parent's.
        const obs::TraceEvent& parent = *track[stack.back()];
        uint64_t end = std::min(event.ts_us + event.dur_us,
                                parent.ts_us + parent.dur_us);
        self[stack.back()] -= static_cast<double>(end - event.ts_us);
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < track.size(); ++i) {
      const obs::TraceEvent& event = *track[i];
      SpanStats& stats = summary.spans[event.name];
      double self_s = std::max(0.0, self[i]) * 1e-6;
      stats.count += 1;
      stats.total_s += static_cast<double>(event.dur_us) * 1e-6;
      stats.self_s += self_s;
      if (root_names.count(event.name) != 0) {
        summary.root_s += static_cast<double>(event.dur_us) * 1e-6;
        summary.root_self_s += self_s;
      }
    }
  }
  return summary;
}

std::vector<double> SpanDurationsUs(const std::vector<obs::TraceEvent>& events,
                                    const std::string& name) {
  std::vector<double> out;
  for (const obs::TraceEvent& event : events) {
    if (event.phase == 'X' && event.name == name) {
      out.push_back(static_cast<double>(event.dur_us));
    }
  }
  return out;
}

void NoteTraceSummary(const TraceSummary& summary, double jobs,
                      Outcome* outcome) {
  auto object = [](const std::map<std::string, double>& values) {
    std::string json = "{";
    for (const auto& [name, value] : values) {
      if (json.size() > 1) json += ", ";
      json += JsonString(name) + ": " + JsonNumber(value);
    }
    return json + "}";
  };
  std::map<std::string, double> layers;
  for (const auto& [layer, self_s] : LayerSelfTimes(summary)) {
    layers[layer] = self_s / jobs;
  }
  std::map<std::string, double> span_self;
  std::map<std::string, double> span_calls;
  for (const auto& [name, stats] : summary.spans) {
    span_self[name] = stats.self_s / jobs;
    span_calls[name] = static_cast<double>(stats.count) / jobs;
  }
  outcome->NoteJson("layer_self_s", object(layers));
  outcome->NoteJson("span_self_s", object(span_self));
  outcome->NoteJson("span_calls", object(span_calls));
  outcome->Note("traced_jobs", jobs);
}

}  // namespace roicl::perfbench
