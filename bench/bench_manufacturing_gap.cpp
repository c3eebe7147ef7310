// Ablation — manufacturing coverage vs mission coverage on one netlist.
//
// The gap between what a tester can reach through the scan chains and
// what a mission-mode self-test can reach through the system bus IS the
// paper's subject: the on-line functionally untestable faults live inside
// that gap. This bench measures both coverages on the same (lean) SoC:
//
//   manufacturing = chain test + random full-scan + deterministic PODEM,
//                   all primary outputs observable;
//   mission       = SBST suite, system-bus observability only.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/analyzer.hpp"
#include "sbst/sbst.hpp"
#include "scan/scan_atpg.hpp"

namespace {

using namespace olfui;

SocConfig lean_config() {
  SocConfig cfg;
  cfg.cpu.with_multiplier = false;
  cfg.cpu.btb_entries = 2;
  cfg.scan.num_chains = 8;  // short chains keep pattern application fast
  return cfg;
}

void print_gap() {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  const FaultUniverse universe(soc->netlist);

  // Mission side.
  FaultList mission(universe);
  auto suite = build_sbst_suite(cfg);
  run_sbst_campaign(*soc, suite, mission);
  const double mission_raw = mission.raw_coverage();
  OnlineUntestabilityAnalyzer analyzer(*soc, universe);
  analyzer.run(mission);
  const double mission_pruned = mission.pruned_coverage();

  // Manufacturing side.
  FaultList manuf(universe);
  ScanAtpgOptions opts;
  opts.random_patterns = 48;
  opts.max_deterministic_targets = 1500;
  opts.pin_constraints = {{soc->cpu.rstn, true}};
  const ScanChains chains = trace_scan(soc->netlist);
  const ScanAtpgResult atpg =
      generate_scan_tests(soc->netlist, chains, universe, manuf, opts);

  std::printf("== ablation: manufacturing vs mission testability ================\n");
  std::printf("universe: %zu faults (lean SoC)\n\n", universe.size());
  std::printf("manufacturing (scan access, all outputs):\n");
  std::printf("  chain test:        %zu faults\n", atpg.detected_by_chain_test);
  std::printf("  random patterns:   %zu faults (%zu kept patterns)\n",
              atpg.detected_by_random, atpg.patterns.size());
  std::printf("  deterministic:     %zu faults, %zu proven redundant, %zu aborted\n",
              atpg.detected_by_deterministic, atpg.proven_untestable,
              atpg.aborted);
  std::printf("  coverage:          %.2f%%\n\n", 100.0 * manuf.raw_coverage());
  std::printf("mission (SBST via system bus):\n");
  std::printf("  raw coverage:      %.2f%%\n", 100.0 * mission_raw);
  std::printf("  pruned coverage:   %.2f%%\n\n", 100.0 * mission_pruned);
  std::printf("gap manufacturing - mission(raw): %.2f points — the habitat of\n"
              "on-line functionally untestable faults.\n\n",
              100.0 * (manuf.raw_coverage() - mission_raw));
}

/// One chain-test batch of range(0) faults: 63 grades on the 64-lane
/// kernel, 255 on the widest one (the width the campaign tests grade at).
/// Items are faults, so the two arms compare per fault.
void BM_ChainTestBatch(benchmark::State& state) {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  const FaultUniverse universe(soc->netlist);
  const ScanChains chains = trace_scan(soc->netlist);
  ScanTestRunner runner(soc->netlist, chains);
  runner.set_pin_constraint(soc->cpu.rstn, true);
  const auto faults = static_cast<FaultId>(state.range(0));
  std::vector<FaultId> batch;
  for (FaultId f = 0; f < faults; ++f)
    batch.push_back(f * 131 % universe.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(runner.grade(batch, universe));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          faults);
}
BENCHMARK(BM_ChainTestBatch)
    ->Arg(63)
    ->Arg(kMaxLaneWidth - 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_gap();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
