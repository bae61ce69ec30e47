// Reproduces the paper's results in one run and one record,
// BENCH_paper.json: a row per simulation, each tagged with its section.
//
//   section   runs  what
//   fig2      27    Figure 2: BDS on 64 uniform shards, rho 0.03..0.27 x
//                   b {1000, 2000, 3000}, 25000 rounds, seed 2024
//   fig3      27    Figure 3: FDS on the 64-shard line, the same grid
//   theorem1  12    Theorem 1 ceiling: the pairwise-conflict adversary at
//                   k = 4, s = 10 (rho* = 0.5), bds and direct
//   theorem2  8     Lemma 1 / Theorem 2 bounds, BDS at its admissible rate
//   scaling   9     BDS backlog over s {16, 64, 144} x k {2, 4, 8} at a
//                   fixed per-shard rate
//
//   build/bench/paper [--json=BENCH_paper.json]
//
// Every run is deterministic in its config, so the record reproduces byte
// for byte (the bench_paper_record_reproduces ctest entry cmps it). The
// bench SSHARD_CHECKs what the paper claims and the data shows: the
// Lemma 1 / Theorem 2 bounds hold and every such run drains; above rho*
// the backlog grows for every scheduler, and at the BDS admissible rate it
// is empty; each figure's left panel (Figure 2's pending per shard, Figure
// 3's leader queue) never falls as rho or b grows. Figure 2's latency is
// not monotone at low rho (263.75 -> 228.55 rounds at b = 2000), so
// nothing is asserted about it.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/math_util.h"
#include "core/bds.h"
#include "core/engine.h"
#include "core/experiment.h"

namespace {

using namespace stableshard;
using bench::Fields;

/// The paper's Section 7 sweep: rho in 0.03..0.27 (step 0.03) and
/// b in {1000, 2000, 3000}.
const std::vector<double> kFigureRhos = [] {
  std::vector<double> grid;
  for (int i = 1; i <= 9; ++i) grid.push_back(0.03 * i);
  return grid;
}();
const std::vector<double> kFigureBursts = {1000, 2000, 3000};

/// Theorem 1 sweep: k + 1 = 5 mutually conflicting transactions, one
/// dedicated shard per pair.
constexpr std::uint32_t kTheorem1K = 4;
constexpr ShardId kTheorem1Shards = 10;

/// `scheduler` over `shards` uniform shards holding one account each.
core::SimConfig OneAccountPerShard(const char* scheduler, ShardId shards,
                                   std::uint32_t k) {
  core::SimConfig config;
  config.scheduler = scheduler;
  config.topology = net::TopologyKind::kUniform;
  config.shards = shards;
  config.accounts = shards;
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.k = k;
  return config;
}

/// The figure grid over `base`, b-major: run (bi, ri) sits at
/// bi * kFigureRhos.size() + ri.
void AppendFigureGrid(const core::SimConfig& base,
                      std::vector<core::SimConfig>& configs) {
  for (const double b : kFigureBursts) {
    for (const double rho : kFigureRhos) {
      core::SimConfig config = base;
      config.rho = rho;
      config.burstiness = b;
      configs.push_back(config);
    }
  }
}

/// Prints one figure (its left panel, then latency), appends a row per
/// run, and returns whether the left panel never falls along rho (within
/// each b) or along b (within each rho).
bool ReportFigure(const char* section, const char* name,
                  const char* left_title,
                  double (*left)(const core::SimResult&),
                  const core::ExperimentRun* runs, std::vector<Fields>& rows) {
  const std::size_t rhos = kFigureRhos.size();
  const auto at = [&](std::size_t bi,
                      std::size_t ri) -> const core::SimResult& {
    return runs[bi * rhos + ri].result;
  };
  const auto print_panel = [&](const char* title,
                               double (*metric)(const core::SimResult&)) {
    std::printf("\n%s — %s\n%8s", name, title, "rho");
    for (const double b : kFigureBursts) std::printf("  %12s=%-5.0f", "b", b);
    std::printf("\n");
    for (std::size_t ri = 0; ri < rhos; ++ri) {
      std::printf("%8.2f", kFigureRhos[ri]);
      for (std::size_t bi = 0; bi < kFigureBursts.size(); ++bi) {
        std::printf("  %18.2f", metric(at(bi, ri)));
      }
      std::printf("\n");
    }
  };
  print_panel(left_title, left);
  print_panel("avg transaction latency in rounds (right panel)",
              [](const core::SimResult& r) { return r.avg_latency; });

  bool monotone = true;
  for (std::size_t bi = 0; bi < kFigureBursts.size(); ++bi) {
    for (std::size_t ri = 0; ri < rhos; ++ri) {
      const core::SimResult& r = at(bi, ri);
      if (ri > 0) monotone = monotone && left(r) >= left(at(bi, ri - 1));
      if (bi > 0) monotone = monotone && left(r) >= left(at(bi - 1, ri));
      rows.push_back(
          {{"section", section}, {"rho", kFigureRhos[ri]},
           {"b", kFigureBursts[bi]},
           {"avg_pending_per_shard", r.avg_pending_per_shard},
           {"avg_latency", r.avg_latency}, {"max_latency", r.max_latency},
           {"p99_latency", r.p99_latency},
           {"avg_leader_queue", r.avg_leader_queue},
           {"injected", r.injected}, {"committed", r.committed},
           {"aborted", r.aborted}, {"unresolved", r.unresolved},
           {"max_pending", r.max_pending}, {"messages", r.messages}});
    }
  }
  return monotone;
}

/// Theorem 1: above rho* every scheduler's backlog grows linearly; at the
/// BDS admissible rate it drains. Returns whether both hold.
bool ReportTheorem1(const core::ExperimentRun* runs, std::size_t count,
                    std::vector<Fields>& rows) {
  const double rho_star =
      AbsoluteStabilityUpperBound(kTheorem1K, kTheorem1Shards);
  const double admissible = BdsStableRateBound(kTheorem1K, kTheorem1Shards);
  std::printf("\nTheorem 1 bound for k=%u, s=%u: rho* = %.3f (BDS admissible "
              "rate %.4f)\n",
              kTheorem1K, kTheorem1Shards, rho_star, admissible);
  std::printf("%-8s %8s %10s %10s %12s %22s\n", "sched", "rho", "vs rho*",
              "injected", "unresolved", "backlog per 1k rounds");
  bool holds = true;
  for (std::size_t i = 0; i < count; ++i) {
    const core::ExperimentRun& run = runs[i];
    const double slope = 1000.0 * static_cast<double>(run.result.unresolved) /
                         static_cast<double>(run.config.rounds);
    const bool above = run.config.rho > rho_star;
    if (above) holds = holds && slope > 0;
    if (run.config.rho == admissible) {
      holds = holds && run.result.unresolved == 0;
    }
    std::printf("%-8s %8.3f %10s %10llu %12llu %22.1f\n",
                run.config.scheduler.c_str(), run.config.rho,
                above ? "above" : "below",
                static_cast<unsigned long long>(run.result.injected),
                static_cast<unsigned long long>(run.result.unresolved), slope);
    rows.push_back({{"section", "theorem1"},
                    {"scheduler", run.config.scheduler},
                    {"rho", run.config.rho}, {"above_theorem1", above},
                    {"injected", run.result.injected},
                    {"unresolved", run.result.unresolved},
                    {"backlog_per_1k_rounds", slope}});
  }
  return holds;
}

/// Lemma 1 / Theorem 2 audit: BDS at the admissible rate
/// rho = max{1/(18k), 1/(18 ceil(sqrt(s)))} across (s, k, b), each run
/// directly because the epoch length is a BdsScheduler counter:
///   epoch length <= 18 b min{k, ceil(sqrt(s))}      (Lemma 1)
///   pending      <= 4 b s                           (Theorem 2)
///   latency      <= 36 b min{k, ceil(sqrt(s))}      (Theorem 2)
/// Returns whether every bound holds and every run drains.
bool RunTheorem2(std::vector<Fields>& rows) {
  struct Case {
    ShardId s;
    std::uint32_t k;
    double b;
  };
  const Case cases[] = {
      {16, 4, 10},  {16, 4, 50},  {16, 8, 20}, {64, 8, 10},
      {64, 8, 100}, {64, 2, 20},  {36, 6, 30}, {100, 10, 10},
  };
  std::printf("\nLemma 1 / Theorem 2 bounds at the BDS admissible rate\n");
  std::printf("%5s %4s %6s %8s | %10s %10s | %12s %12s | %12s %12s\n", "s",
              "k", "b", "rho", "max_epoch", "<=18b*m", "max_pending",
              "<=4bs", "max_latency", "<=36b*m");
  bool all_ok = true;
  for (const Case& c : cases) {
    core::SimConfig config = OneAccountPerShard("bds", c.s, c.k);
    config.burstiness = c.b;
    config.rho = BdsStableRateBound(c.k, c.s);
    config.rounds = 12000;
    config.drain_cap = 100000;
    core::Simulation sim(config);
    auto& scheduler = dynamic_cast<core::BdsScheduler&>(sim.scheduler());
    const auto result = sim.Run();

    const double m = static_cast<double>(MinKSqrtS(c.k, c.s));
    const double epoch_bound = 18.0 * c.b * m;
    const double pending_bound = 4.0 * c.b * c.s;
    const double latency_bound = 36.0 * c.b * m;
    const bool ok = scheduler.max_epoch_length() <= epoch_bound &&
                    result.max_pending <= pending_bound &&
                    result.max_latency <= latency_bound && result.drained;
    all_ok = all_ok && ok;
    std::printf(
        "%5u %4u %6.0f %8.4f | %10llu %10.0f | %12llu %12.0f | %12.0f "
        "%12.0f %s\n",
        c.s, c.k, c.b, config.rho,
        static_cast<unsigned long long>(scheduler.max_epoch_length()),
        epoch_bound, static_cast<unsigned long long>(result.max_pending),
        pending_bound, result.max_latency, latency_bound,
        ok ? "OK" : "VIOLATED");
    rows.push_back({{"section", "theorem2"}, {"s", c.s}, {"k", c.k},
                    {"b", c.b}, {"rho", config.rho},
                    {"max_epoch", scheduler.max_epoch_length()},
                    {"epoch_bound", epoch_bound},
                    {"max_pending", result.max_pending},
                    {"pending_bound", pending_bound},
                    {"max_latency", result.max_latency},
                    {"latency_bound", latency_bound}});
  }
  return all_ok;
}

/// The stability region across (s, k): BDS backlog at a fixed per-shard
/// rate, next to the admissible rate max{1/(18k), 1/(18 ceil sqrt s)} and
/// Theorem 1's ceiling max{2/(k+1), 2/floor(sqrt(2s))}.
void ReportScaling(const core::ExperimentRun* runs, std::size_t count,
                   std::vector<Fields>& rows) {
  std::printf("\nBDS grid at fixed rho=%.2f, b=%.0f, %llu rounds\n",
              runs[0].config.rho, runs[0].config.burstiness,
              static_cast<unsigned long long>(runs[0].config.rounds));
  std::printf("%8s %5s %6s %4s | %14s %14s | %18s %12s %12s\n", "topology",
              "sched", "s", "k", "bds_admissible", "theorem1_rho*",
              "avg_pending/shard", "avg_latency", "unresolved");
  for (std::size_t i = 0; i < count; ++i) {
    const core::ExperimentRun& run = runs[i];
    const std::string topology = net::TopologyName(run.config.topology);
    const double admissible =
        BdsStableRateBound(run.config.k, run.config.shards);
    const double rho_star =
        AbsoluteStabilityUpperBound(run.config.k, run.config.shards);
    std::printf("%8s %5s %6u %4u | %14.4f %14.3f | %18.2f %12.0f %12llu\n",
                topology.c_str(), run.config.scheduler.c_str(),
                run.config.shards, run.config.k, admissible, rho_star,
                run.result.avg_pending_per_shard, run.result.avg_latency,
                static_cast<unsigned long long>(run.result.unresolved));
    rows.push_back(
        {{"section", "scaling"}, {"topology", topology},
         {"scheduler", run.config.scheduler}, {"s", run.config.shards},
         {"k", run.config.k}, {"rho", run.config.rho},
         {"bds_admissible", admissible}, {"theorem1_bound", rho_star},
         {"avg_pending_per_shard", run.result.avg_pending_per_shard},
         {"avg_latency", run.result.avg_latency},
         {"unresolved", run.result.unresolved}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  const std::string json_path = flags.GetString("json", "BENCH_paper.json");
  if (!flags.FinishReads()) return 2;
  bench::Record record;
  if (!record.Open(json_path)) return 2;

  // Every swept section goes through one RunSweep; `begin` marks where
  // each section's configs start.
  std::vector<core::SimConfig> configs;

  core::SimConfig fig2 = OneAccountPerShard("bds", 64, 8);
  fig2.rounds = 25000;
  fig2.seed = 2024;
  AppendFigureGrid(fig2, configs);

  const std::size_t fig3_begin = configs.size();
  core::SimConfig fig3 = fig2;
  fig3.scheduler = "fds";
  fig3.topology = net::TopologyKind::kLine;
  fig3.hierarchy = core::HierarchyKind::kLineShifted;
  AppendFigureGrid(fig3, configs);

  const std::size_t theorem1_begin = configs.size();
  const double admissible = BdsStableRateBound(kTheorem1K, kTheorem1Shards);
  for (const char* scheduler : {"bds", "direct"}) {
    for (const double rho : {admissible, 0.30, 0.45, 0.55, 0.70, 0.90}) {
      core::SimConfig config =
          OneAccountPerShard(scheduler, kTheorem1Shards, kTheorem1K);
      config.strategy = "pairwise_conflict";
      config.rho = rho;
      config.burstiness = 4;
      config.burst_round = kNoRound;
      config.rounds = 8000;
      configs.push_back(config);
    }
  }

  const std::size_t scaling_begin = configs.size();
  for (const ShardId s : {16u, 64u, 144u}) {
    for (const std::uint32_t k : {2u, 4u, 8u}) {
      core::SimConfig config = OneAccountPerShard("bds", s, k);
      config.rho = 0.10;
      config.burstiness = 500;
      config.rounds = 12000;
      configs.push_back(config);
    }
  }

  std::printf("paper: %zu swept simulations (fig2, fig3, theorem1, scaling) "
              "and 8 theorem2 runs ...\n",
              configs.size());
  std::fflush(stdout);
  const auto runs = core::RunSweep(configs);

  std::vector<Fields> rows;
  const bool fig2_monotone = ReportFigure(
      "fig2", "Figure 2 (BDS, uniform)",
      "avg pending transactions per home shard (left panel)",
      [](const core::SimResult& r) { return r.avg_pending_per_shard; },
      &runs[0], rows);
  const bool fig3_monotone = ReportFigure(
      "fig3", "Figure 3 (FDS, line)",
      "avg scheduled-but-uncommitted txns per cluster leader (left panel)",
      [](const core::SimResult& r) { return r.avg_leader_queue; },
      &runs[fig3_begin], rows);
  const bool theorem1_holds = ReportTheorem1(
      &runs[theorem1_begin], scaling_begin - theorem1_begin, rows);
  const bool theorem2_holds = RunTheorem2(rows);
  ReportScaling(&runs[scaling_begin], runs.size() - scaling_begin, rows);

  record.Write({{"bench", "paper"}}, rows);
  std::printf("\n%zu rows written to %s\n", rows.size(), json_path.c_str());

  SSHARD_CHECK(theorem2_holds &&
               "a Lemma 1 / Theorem 2 bound failed or a run did not drain "
               "at the BDS admissible rate");
  SSHARD_CHECK(theorem1_holds &&
               "above rho* a backlog did not grow, or at the BDS admissible "
               "rate it did not drain");
  SSHARD_CHECK(fig2_monotone &&
               "Figure 2's pending per shard fell as rho or b grew");
  SSHARD_CHECK(fig3_monotone &&
               "Figure 3's leader queue fell as rho or b grew");
  return 0;
}
