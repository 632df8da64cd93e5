// alloc_10m: Algorithm 1 at scale with no scoring. One job streams 10M
// synthetic users through the sharded greedy and dual allocators under a
// 64 MiB accounted cap, then allocates a 4M-user x 8-arm campaign.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "campaign/karm_source.h"
#include "campaign/karm_streaming.h"
#include "common.h"
#include "obs/trace.h"
#include "trace_layers.h"

namespace roicl::perfbench {
namespace {

constexpr int64_t kUsers = 10'000'000;
constexpr int64_t kCampaignUsers = 4'000'000;
constexpr int kArms = 8;
constexpr int kShards = 8;
constexpr int kChunkRows = 65536;
constexpr size_t kMemoryCap = size_t{64} << 20;
/// 0.2% of the all-in cost: the CLI default of 15% keeps a frontier far
/// larger than the cap.
constexpr double kBudgetFraction = 0.002;

struct Inputs {
  std::unique_ptr<alloc::SyntheticRowSource> users;
  std::unique_ptr<campaign::SyntheticKArmRowSource> campaign_users;
  campaign::KArmBudgets campaign_budgets;
};

/// Shards run in sequence, as the CLI runs them by default (the result
/// is bitwise the same either way).
alloc::StreamingOptions Options(alloc::AllocMode mode, int shards) {
  alloc::StreamingOptions options;
  options.mode = mode;
  options.num_shards = shards;
  options.memory_cap_bytes = kMemoryCap;
  return options;
}

/// Campaign budget: the fraction of the summed per-user mean arm cost,
/// with unbounded arms (the global cap binds).
campaign::KArmBudgets CampaignBudgets(campaign::KArmRowSource* source) {
  double base_cost = 0.0;
  campaign::KArmRowChunk chunk;
  source->Reset();
  while (source->Next(&chunk)) {
    for (int64_t i = 0; i < chunk.size(); ++i) {
      double mean = 0.0;
      for (int k = 0; k < chunk.num_arms(); ++k) {
        mean += chunk.cost[static_cast<size_t>(k)][static_cast<size_t>(i)];
      }
      base_cost += mean / chunk.num_arms();
    }
  }
  source->Reset();
  campaign::KArmBudgets budgets;
  budgets.global = kBudgetFraction * base_cost;
  budgets.per_arm.assign(kArms, std::numeric_limits<double>::infinity());
  return budgets;
}

struct Job {
  double wall_s = 0.0;
  double budget = 0.0;
  alloc::StreamingResult greedy;
  alloc::StreamingResult dual;
  campaign::KArmStreamingResult campaign;
};

template <typename T>
T ValueOrDie(StatusOr<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

Job RunJob(Inputs* inputs) {
  Job job;
  Clock::time_point start = Clock::now();
  {
    obs::ScopedSpan job_span("bench.job");
    double total_cost = ValueOrDie(
        [&] {
          obs::ScopedSpan span("bench.alloc.total_cost");
          return alloc::StreamingTotalCost(inputs->users.get());
        }(),
        "total cost");
    job.budget = kBudgetFraction * total_cost;
    job.greedy = ValueOrDie(
        [&] {
          obs::ScopedSpan span("bench.alloc.greedy");
          return alloc::StreamingAllocate(
              inputs->users.get(), job.budget,
              Options(alloc::AllocMode::kGreedy, kShards));
        }(),
        "greedy allocate");
    job.dual = ValueOrDie(
        [&] {
          obs::ScopedSpan span("bench.alloc.dual");
          return alloc::StreamingAllocate(
              inputs->users.get(), job.budget,
              Options(alloc::AllocMode::kDual, kShards));
        }(),
        "dual allocate");
    job.campaign = ValueOrDie(
        [&] {
          obs::ScopedSpan span("bench.campaign.karm");
          campaign::KArmStreamingOptions options;
          options.num_shards = kShards;
          options.memory_cap_bytes = kMemoryCap;
          return campaign::StreamingKArmAllocate(
              inputs->campaign_users.get(), inputs->campaign_budgets,
              options);
        }(),
        "campaign allocate");
  }
  job.wall_s = SecondsSince(start);
  return job;
}

struct Pass {
  std::vector<double> job_s;
  Job last;
};

Pass RunPass(Inputs* inputs, double seconds, Outcome* outcome) {
  Pass pass;
  std::vector<int64_t> first_selection;
  Clock::time_point start = Clock::now();
  do {
    Job job = RunJob(inputs);
    outcome->Operations(4, 0);
    pass.job_s.push_back(job.wall_s);
    outcome->Check(job.greedy.spent <= job.budget &&
                       job.dual.spent <= job.budget &&
                       !job.greedy.selected.empty(),
                   "binary spend within budget");
    outcome->Check(job.greedy.peak_memory_bytes <= kMemoryCap &&
                       job.dual.peak_memory_bytes <= kMemoryCap &&
                       job.campaign.peak_memory_bytes <= kMemoryCap,
                   "accounted peak within the memory cap");
    outcome->Check(job.dual.dual_gap >= 0.0, "dual gap >= 0");
    bool campaign_ok = job.campaign.spent <= inputs->campaign_budgets.global &&
                       !job.campaign.selected_pairs.empty();
    for (size_t k = 0; k < job.campaign.arm_spent.size(); ++k) {
      campaign_ok = campaign_ok && job.campaign.arm_spent[k] <=
                                       inputs->campaign_budgets.per_arm[k];
    }
    outcome->Check(campaign_ok, "campaign spend within budgets");
    if (first_selection.empty()) {
      first_selection = job.greedy.selected;
    } else {
      outcome->Check(job.greedy.selected == first_selection,
                     "every job selects the same users");
    }
    pass.last = std::move(job);
  } while (RunAnotherJob(start, seconds, pass.job_s));
  return pass;
}

double Mib(size_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

}  // namespace

void RunAllocWorkload(const RunArgs& args, Outcome* outcome) {
  Inputs inputs;
  double setup_s = TimeSetup(5, [&] {
    inputs.users = std::make_unique<alloc::SyntheticRowSource>(
        kUsers, args.seed, kChunkRows);
    inputs.campaign_users = std::make_unique<campaign::SyntheticKArmRowSource>(
        kCampaignUsers, kArms, args.seed + 1, kChunkRows);
    inputs.campaign_budgets = CampaignBudgets(inputs.campaign_users.get());
  });

  Pass pass = RunPass(&inputs, PassSeconds(args), outcome);
  const Job& last = pass.last;
  const double rows = static_cast<double>(kUsers + kCampaignUsers);
  outcome->EndToEnd("setup_s", setup_s);
  outcome->EndToEnd("rows_per_s", rows / Median(pass.job_s));
  // Synthetic ROI is the ground truth here: value / spend of the greedy set.
  outcome->EndToEnd("revenue_per_cost", last.greedy.value / last.greedy.spent);
  outcome->NoteJson("job_s", JsonNumberList(pass.job_s));
  outcome->Note("users", static_cast<double>(kUsers));
  outcome->Note("campaign_users", static_cast<double>(kCampaignUsers));
  outcome->Note("selected", static_cast<double>(last.greedy.selected.size()));

  // Untimed: the sharded greedy selection equals the single-shard one.
  {
    StatusOr<alloc::StreamingResult> single = alloc::StreamingAllocate(
        inputs.users.get(), last.budget,
        Options(alloc::AllocMode::kGreedy, 1));
    outcome->Check(single.ok() && single.value().selected ==
                                      last.greedy.selected &&
                       single.value().spent == last.greedy.spent,
                   "greedy selection identical at 1 and 8 shards");
  }

  if (!args.trace) return;

  PassMeter meter;
  StartTracing();
  Pass traced = RunPass(&inputs, PassSeconds(args), outcome);
  std::vector<obs::TraceEvent> events = StopTracing(
      args.out_dir + "/trace-" + args.workload + "-seed" +
      std::to_string(args.seed) + ".json");
  double jobs = static_cast<double>(traced.job_s.size());
  TraceSummary summary = SummarizeTrace(events, {"bench.job"});
  const Job& job = traced.last;
  outcome->Layer("alloc.total_cost_s",
                 summary.total_s("bench.alloc.total_cost") / jobs);
  outcome->Layer("alloc.greedy_s",
                 summary.total_s("bench.alloc.greedy") / jobs);
  outcome->Layer("alloc.dual_s", summary.total_s("bench.alloc.dual") / jobs);
  outcome->Layer("alloc.peak_mib.greedy", Mib(job.greedy.peak_memory_bytes));
  outcome->Layer("alloc.peak_mib.dual", Mib(job.dual.peak_memory_bytes));
  outcome->Layer("alloc.frontier_evictions",
                 static_cast<double>(job.greedy.frontier_evictions));
  outcome->Layer("alloc.merge_candidates",
                 static_cast<double>(job.greedy.merge_candidates));
  outcome->Layer("alloc.dual_gap", job.dual.dual_gap);
  outcome->Layer("campaign.karm_s",
                 summary.total_s("bench.campaign.karm") / jobs);
  outcome->Layer("campaign.peak_mib", Mib(job.campaign.peak_memory_bytes));
  outcome->Layer("core.mc_dropout.calls",
                 static_cast<double>(summary.count("mc_dropout")) / jobs);
  outcome->Layer("common.thread_pool.tasks",
                 meter.CounterDelta("threadpool.tasks") / jobs);
  outcome->Layer("process.cpu_util", meter.cpu_util());
  outcome->Layer("trace.unattributed_frac", summary.unattributed_frac());
  outcome->Layer("trace.overhead_frac",
                 Median(traced.job_s) / Median(pass.job_s) - 1.0);
  NoteTraceSummary(summary, jobs, outcome);
}

}  // namespace roicl::perfbench
