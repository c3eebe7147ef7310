// Manufacturing-mode scan testing — the other half of the paper's claim:
// faults that are on-line functionally untestable ARE testable while the
// scan/debug structures are still accessible.
#include <gtest/gtest.h>

#include <bit>

#include "atpg/podem.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "core/analyzer.hpp"
#include "netlist/wordops.hpp"
#include "obs/metrics.hpp"
#include "scan/pattern_io.hpp"
#include "scan/scan_atpg.hpp"
#include "scan/scan_test.hpp"
#include "scan_oracle.hpp"
#include "util/rng.hpp"

namespace olfui {
namespace {

struct Rig {
  std::unique_ptr<Soc> soc;
  std::unique_ptr<FaultUniverse> universe;
  ScanChains chains;

  Rig() {
    SocConfig cfg;
    cfg.cpu.with_multiplier = false;
    cfg.cpu.btb_entries = 1;
    cfg.scan.num_chains = 2;
    cfg.with_debug = false;
    soc = build_soc(cfg);
    universe = std::make_unique<FaultUniverse>(soc->netlist);
    chains = trace_scan(soc->netlist);
  }

  ScanTestRunner make_runner() const {
    ScanTestRunner runner(soc->netlist, chains);
    // Release reset during test so DFFR chain positions can hold data.
    runner.set_pin_constraint(soc->cpu.rstn, true);
    return runner;
  }
};

TEST(ScanPatternFromAtpg, SplitsPiAndChainState) {
  Rig rig;
  AtpgPattern atpg;
  // One PI and one flop assignment.
  const NetId pi = rig.soc->netlist.find_input("rstn");
  const CellId flop = rig.chains.chains[0].elements[3].flop;
  atpg.assignment[pi] = true;
  atpg.assignment[rig.soc->netlist.cell(flop).out] = true;
  const ScanPattern pat =
      scan_pattern_from_atpg(rig.soc->netlist, rig.chains, atpg);
  EXPECT_EQ(pat.pi.at(pi), true);
  EXPECT_TRUE(pat.chain_state[0][3]);
  EXPECT_FALSE(pat.chain_state[0][2]);
}

TEST(ScanTest, ChainTestDetectsSerialPathFaults) {
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  // Every SI-branch fault of the first chain must fail the flush test.
  std::vector<FaultId> faults;
  for (const ScanElement& e : rig.chains.chains[0].elements) {
    faults.push_back(rig.universe->id_of({e.mux, kMuxB + 1}, false));
    faults.push_back(rig.universe->id_of({e.mux, kMuxB + 1}, true));
    if (faults.size() >= 60) break;
  }
  const std::uint64_t det = runner.run_chain_test(faults, *rig.universe);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_TRUE(det & (1ULL << i)) << rig.universe->fault_name(faults[i]);
}

TEST(ScanTest, ChainTestDetectsBufferAndScanOutFaults) {
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  std::vector<FaultId> faults;
  for (const ScanChain& chain : rig.chains.chains) {
    for (const ScanElement& e : chain.elements)
      for (CellId buf : e.link_buffers) {
        faults.push_back(rig.universe->id_of({buf, 0}, false));
        faults.push_back(rig.universe->id_of({buf, 0}, true));
      }
    for (CellId buf : chain.tail_buffers) {
      faults.push_back(rig.universe->id_of({buf, 1}, false));
      faults.push_back(rig.universe->id_of({buf, 1}, true));
    }
    faults.push_back(rig.universe->id_of({chain.scan_out_port, 1}, false));
    faults.push_back(rig.universe->id_of({chain.scan_out_port, 1}, true));
  }
  std::size_t missed = 0;
  for (std::size_t i = 0; i < faults.size(); i += 60) {
    const std::size_t n = std::min<std::size_t>(60, faults.size() - i);
    const std::uint64_t det =
        runner.run_chain_test(std::span(faults).subspan(i, n), *rig.universe);
    for (std::size_t j = 0; j < n; ++j)
      if (!(det & (1ULL << j))) ++missed;
  }
  EXPECT_EQ(missed, 0u);
}

TEST(ScanTest, ChainTestDetectsScanEnableStuckFunctional) {
  // SE stuck at the functional value stops the chain from shifting at that
  // flop: the flush pattern never reaches scan-out intact.
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  std::vector<FaultId> faults;
  for (const ScanElement& e : rig.chains.chains[0].elements) {
    faults.push_back(rig.universe->id_of(
        {e.mux, kMuxS + 1}, rig.chains.se_functional_value));
    if (faults.size() >= 50) break;
  }
  const std::uint64_t det = runner.run_chain_test(faults, *rig.universe);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_TRUE(det & (1ULL << i)) << rig.universe->fault_name(faults[i]);
}

TEST(ScanTest, FullScanPatternDetectsFunctionalLogicFault) {
  // PODEM test for an ALU-cone fault, applied through the chains.
  Rig rig;
  Podem podem(rig.soc->netlist, *rig.universe, {.backtrack_limit = 50000});
  // Pick the first adder cell of the ALU.
  CellId target = kInvalidId;
  for (CellId c = 0; c < rig.soc->netlist.num_cells(); ++c) {
    if (rig.soc->netlist.cell(c).name.find("alu/adder_sum") != std::string::npos) {
      target = c;
      break;
    }
  }
  ASSERT_NE(target, kInvalidId);
  std::size_t applied = 0, detected = 0;
  std::vector<FaultId> ids;
  rig.universe->faults_of_cell(target, ids);
  ScanTestRunner runner = rig.make_runner();
  for (FaultId f : ids) {
    const AtpgResult r = podem.run(f);
    if (r.outcome != AtpgOutcome::kTestFound) continue;
    ++applied;
    const ScanPattern pat =
        scan_pattern_from_atpg(rig.soc->netlist, rig.chains, *r.pattern);
    const std::uint64_t det =
        runner.run_pattern(std::span(&f, 1), *rig.universe, pat);
    detected += det & 1;
  }
  ASSERT_GT(applied, 0u);
  EXPECT_EQ(detected, applied);
}

TEST(ScanTest, OnlineUntestableScanFaultsAreManufacturingTestable) {
  // The paper's central statement, demonstrated end to end: sample faults
  // the on-line flow prunes as scan-class and show the manufacturing
  // chain test catches them.
  Rig rig;
  FaultList fl(*rig.universe);
  prune_scan_faults(rig.chains, *rig.universe, fl);
  Rng rng(99);
  std::vector<FaultId> pruned;
  for (FaultId f = 0; f < fl.size(); ++f)
    if (fl.online_source(f) == OnlineSource::kScan) pruned.push_back(f);
  ASSERT_FALSE(pruned.empty());

  // SE-branch ties are untestable-by-definition even for the tester (the
  // fault value equals the tied value only in mission mode; during scan
  // test SE toggles, so they are detectable). Chain-test a random sample.
  ScanTestRunner runner = rig.make_runner();
  std::vector<FaultId> sample;
  for (int i = 0; i < 50; ++i)
    sample.push_back(pruned[rng.next_below(pruned.size())]);
  const std::uint64_t det = runner.run_chain_test(sample, *rig.universe);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < sample.size(); ++i)
    if (det & (1ULL << i)) ++hits;
  // The flush test alone catches the overwhelming majority; SE stem-style
  // faults may need capture patterns, so allow a small remainder.
  EXPECT_GT(hits, sample.size() * 8 / 10)
      << "only " << hits << "/" << sample.size()
      << " pruned scan faults caught by the chain test";
}

TEST(ScanAtpg, FlowReachesHighCoverageOnSmallCore) {
  // Full manufacturing flow on a lean netlist: chain test + random +
  // deterministic phases must together cover most of the universe.
  SocConfig cfg;
  cfg.cpu.with_multiplier = false;
  cfg.cpu.btb_entries = 1;
  cfg.scan.num_chains = 8;
  cfg.with_debug = false;
  auto soc = build_soc(cfg);
  const FaultUniverse u(soc->netlist);
  FaultList fl(u);
  const ScanChains chains = trace_scan(soc->netlist);
  ScanAtpgOptions opts;
  opts.random_patterns = 24;
  opts.max_deterministic_targets = 200;
  opts.pin_constraints = {{soc->cpu.rstn, true}};
  const ScanAtpgResult r = generate_scan_tests(soc->netlist, chains, u, fl, opts);
  EXPECT_GT(r.detected_by_chain_test, 1000u);
  EXPECT_GT(r.detected_by_random, 5000u);
  EXPECT_GT(fl.raw_coverage(), 0.5);
  EXPECT_FALSE(r.patterns.empty());
  EXPECT_EQ(r.total_detected(), fl.count_detected());
}

TEST(ScanAtpg, ComposesWithPriorDetections) {
  SocConfig cfg;
  cfg.cpu.with_multiplier = false;
  cfg.cpu.btb_entries = 1;
  cfg.scan.num_chains = 8;
  cfg.with_debug = false;
  auto soc = build_soc(cfg);
  const FaultUniverse u(soc->netlist);
  FaultList fl(u);
  // Pre-mark a slab of faults detected: the flow must not count them again.
  for (FaultId f = 0; f < 500; ++f) fl.set_detected(f);
  ScanAtpgOptions opts;
  opts.random_patterns = 4;
  opts.max_deterministic_targets = 0;
  opts.pin_constraints = {{soc->cpu.rstn, true}};
  const ScanChains chains = trace_scan(soc->netlist);
  const ScanAtpgResult r = generate_scan_tests(soc->netlist, chains, u, fl, opts);
  EXPECT_EQ(fl.count_detected(), 500u + r.total_detected());
}

TEST(ScanAtpg, RedundancyProofsLandInFaultList) {
  // A netlist with a known redundant cone: y = a | (a & b).
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId ab = w.and2(a, b, "ab");
  const NetId y = w.or2(a, ab, "y");
  RegWord r0 = w.reg_word({y}, "r0");
  nl.add_output("o", r0.q[0]);
  const ScanChains chains = insert_scan(nl, {.num_chains = 1});
  const FaultUniverse u(nl);
  FaultList fl(u);
  const ScanAtpgResult r = generate_scan_tests(nl, chains, u, fl,
                                               ScanAtpgOptions{.random_patterns = 8, .seed = 1, .max_deterministic_targets = 4000, .backtrack_limit = 2000, .pin_constraints = {}});
  EXPECT_GE(r.proven_untestable, 1u);
  const CellId g = nl.net(ab).driver;
  // The redundant s-a-0 is either detected-never nor testable: it must be
  // marked redundant (or remain open if collapsing chose a sibling rep).
  bool redundant_found = false;
  for (FaultId f = 0; f < u.size(); ++f)
    redundant_found |= fl.untestable_kind(f) == UntestableKind::kRedundant;
  EXPECT_TRUE(redundant_found);
  (void)g;
}

TEST(PatternIo, RoundTripPreservesPatterns) {
  Rig rig;
  Rng rng(4);
  std::vector<ScanPattern> pats;
  for (int p = 0; p < 3; ++p) {
    ScanPattern pat;
    pat.pi[rig.soc->netlist.find_input("rstn")] = rng.next_bool();
    pat.pi[rig.soc->netlist.find_input("instr_i3")] = rng.next_bool();
    for (const ScanChain& chain : rig.chains.chains) {
      std::vector<bool> bits(chain.elements.size());
      for (std::size_t k = 0; k < bits.size(); ++k) bits[k] = rng.next_bool();
      pat.chain_state.push_back(std::move(bits));
    }
    pats.push_back(std::move(pat));
  }
  const std::string text = write_patterns(rig.soc->netlist, pats);
  const auto back = read_patterns(rig.soc->netlist, text);
  ASSERT_EQ(back.size(), pats.size());
  for (std::size_t p = 0; p < pats.size(); ++p) {
    EXPECT_EQ(back[p].pi, pats[p].pi) << p;
    EXPECT_EQ(back[p].chain_state, pats[p].chain_state) << p;
  }
}

TEST(PatternIo, ReplayedPatternDetectsSameFault) {
  Rig rig;
  Podem podem(rig.soc->netlist, *rig.universe, {.backtrack_limit = 20000});
  // Find a testable fault and its pattern.
  FaultId target = 0;
  ScanPattern pat;
  bool found = false;
  for (FaultId f = 100; f < rig.universe->size() && !found; f += 17) {
    const AtpgResult r = podem.run(f);
    if (r.outcome == AtpgOutcome::kTestFound) {
      target = f;
      pat = scan_pattern_from_atpg(rig.soc->netlist, rig.chains, *r.pattern);
      found = true;
    }
  }
  ASSERT_TRUE(found);
  const std::string text = write_patterns(rig.soc->netlist, {pat});
  const auto back = read_patterns(rig.soc->netlist, text);
  ScanTestRunner runner = rig.make_runner();
  const std::uint64_t d1 =
      runner.run_pattern(std::span(&target, 1), *rig.universe, pat);
  const std::uint64_t d2 =
      runner.run_pattern(std::span(&target, 1), *rig.universe, back[0]);
  EXPECT_EQ(d1 & 1, d2 & 1);
}

TEST(PatternIo, ErrorsCarryLineNumbers) {
  Rig rig;
  try {
    read_patterns(rig.soc->netlist, "pattern 0\n  pi nonexistent 1\nend\n");
    FAIL() << "expected PatternIoError";
  } catch (const PatternIoError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(read_patterns(rig.soc->netlist, "end\n"), PatternIoError);
  EXPECT_THROW(read_patterns(rig.soc->netlist, "pattern 0\n"), PatternIoError);
  EXPECT_THROW(read_patterns(rig.soc->netlist, "pattern 0\n  chain 0 012\nend\n"),
               PatternIoError);
}

// ---------------------------------------------------------------------------
// The single-settle kernel at 64 and kMaxLaneWidth lanes against the
// two-settle 64-lane oracle (scan_oracle.hpp).

/// A random sequential design: inputs (in0 doubles as the DFFR reset),
/// flops with random feedback, a random gate DAG and a few outputs.
std::unique_ptr<Netlist> random_design(Rng& rng, int n_inputs, int n_flops,
                                       int n_gates) {
  auto nl = std::make_unique<Netlist>("rand");
  std::vector<NetId> nets;
  for (int i = 0; i < n_inputs; ++i)
    nets.push_back(nl->add_input("in" + std::to_string(i)));
  const NetId rstn = nets[0];
  std::vector<CellId> flops;
  for (int f = 0; f < n_flops; ++f) {
    const NetId q = nl->add_net("q" + std::to_string(f));
    const std::string name = "u_ff" + std::to_string(f);
    flops.push_back(
        rng.next_bool()
            ? nl->add_cell(CellType::kDffR, name, q, {kInvalidId, rstn})
            : nl->add_cell(CellType::kDff, name, q, {kInvalidId}));
    nets.push_back(q);
  }
  const CellType kGates[] = {CellType::kNot,  CellType::kAnd2, CellType::kOr3,
                             CellType::kNand2, CellType::kNor2, CellType::kXor2,
                             CellType::kMux2};
  for (int g = 0; g < n_gates; ++g) {
    const CellType t = kGates[rng.next_below(std::size(kGates))];
    std::vector<NetId> ins(static_cast<std::size_t>(num_inputs(t)));
    for (NetId& in : ins) in = nets[rng.next_below(nets.size())];
    const NetId out = nl->add_net("g" + std::to_string(g));
    nl->add_cell(t, "u_g" + std::to_string(g), out, std::move(ins));
    nets.push_back(out);
  }
  const auto any_net = [&] { return nets[rng.next_below(nets.size())]; };
  for (CellId f : flops) nl->connect_input(f, 0, any_net());
  for (int o = 0; o < 4; ++o)
    nl->add_output("out" + std::to_string(o), any_net());
  EXPECT_TRUE(nl->validate().empty());
  return nl;
}

/// Every fault on the scan structures and the observation points — the SE
/// and SI input stems, scan muxes, link and tail buffers, scan-out ports,
/// POs, flop D/Q/RSTN pins — followed by every `stride`-th fault.
std::vector<FaultId> scan_fault_sample(const Netlist& nl,
                                       const ScanChains& chains,
                                       const FaultUniverse& u, FaultId stride) {
  std::vector<FaultId> out;
  const auto cell_faults = [&](CellId c) { u.faults_of_cell(c, out); };
  cell_faults(nl.net(chains.se_net).driver);
  for (const ScanChain& chain : chains.chains) {
    cell_faults(nl.net(chain.scan_in_net).driver);
    for (const ScanElement& e : chain.elements) {
      cell_faults(e.mux);
      cell_faults(e.flop);
      for (CellId b : e.link_buffers) cell_faults(b);
    }
    for (CellId b : chain.tail_buffers) cell_faults(b);
    cell_faults(chain.scan_out_port);
  }
  for (CellId oc : nl.output_cells()) cell_faults(oc);
  for (FaultId f = 0; f < u.size(); f += stride) out.push_back(f);
  return out;
}

/// Random PI and chain values; `held` (the reset input) keeps its value,
/// so reset flops do not clear at capture.
ScanPattern random_scan_pattern(const Netlist& nl, const ScanChains& chains,
                                Rng& rng, NetId held) {
  ScanPattern p;
  for (CellId c : nl.input_cells()) {
    const NetId n = nl.cell(c).out;
    if (n != chains.se_net) p.pi[n] = n == held || rng.next_bool();
  }
  for (const ScanChain& chain : chains.chains) {
    std::vector<bool> bits(chain.elements.size());
    for (std::size_t k = 0; k < bits.size(); ++k) bits[k] = rng.next_bool();
    p.chain_state.push_back(std::move(bits));
  }
  return p;
}

/// Grades `faults` in consecutive batches of `batch` through the runner
/// and the oracle (the chain test, then each pattern) and expects
/// identical masks.
void expect_matches_oracle(const ScanTestRunner& runner,
                           const ScanOracle& oracle, const FaultUniverse& u,
                           std::span<const FaultId> faults, std::size_t batch,
                           const std::vector<ScanPattern>& patterns) {
  std::vector<const ScanPattern*> tests = {nullptr};
  for (const ScanPattern& p : patterns) tests.push_back(&p);
  for (std::size_t i = 0; i < faults.size(); i += batch) {
    const auto part = faults.subspan(i, std::min(batch, faults.size() - i));
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const LaneMask want = oracle.grade(part, u, tests[t]);
      EXPECT_EQ(runner.grade(part, u, tests[t]), want)
          << "batch " << batch << " at " << i << ", test " << t;
      if (part.size() <= 63) {
        const std::uint64_t narrow =
            tests[t] ? runner.run_pattern(part, u, *tests[t])
                     : runner.run_chain_test(part, u);
        EXPECT_EQ(LaneMask(narrow), want) << "batch " << batch << " at " << i;
      }
    }
  }
}

constexpr std::size_t kBatchSizes[] = {1, 63, 64, 200, 255};

TEST(ScanKernel, MatchesTwoSettleOracleOnRandomDesigns) {
  Rng rng(1601);
  for (int trial = 0; trial < 4; ++trial) {
    auto nl = random_design(rng, 5, 11 + 4 * trial, 60 + 20 * trial);
    const ScanChains chains =
        insert_scan(*nl, {.num_chains = 3 + trial % 2, .buffers_per_link = 1,
                          .se_functional_value = trial % 2 == 1});
    std::size_t shortest = ~std::size_t{0}, longest = 0;
    for (const ScanChain& c : chains.chains) {
      shortest = std::min(shortest, c.elements.size());
      longest = std::max(longest, c.elements.size());
    }
    ASSERT_LT(shortest, longest) << "chains must differ in length";
    const FaultUniverse u(*nl);
    ScanTestRunner runner(*nl, chains);
    runner.set_pin_constraint(nl->find_input("in0"), true);
    const ScanOracle oracle{*nl, chains, {{nl->find_input("in0"), true}}};
    std::vector<ScanPattern> patterns;
    for (int p = 0; p < 2; ++p)
      patterns.push_back(
          random_scan_pattern(*nl, chains, rng, nl->find_input("in0")));
    const std::vector<FaultId> faults = scan_fault_sample(*nl, chains, u, 1);
    ASSERT_GT(faults.size(), 255u);
    for (std::size_t batch : kBatchSizes)
      expect_matches_oracle(runner, oracle, u, faults, batch, patterns);
  }
}

TEST(ScanKernel, MatchesTwoSettleOracleOnFullSocSample) {
  auto soc = build_soc(SocConfig{});
  const FaultUniverse u(soc->netlist);
  ScanTestRunner runner(soc->netlist, soc->scan);
  runner.set_pin_constraint(soc->cpu.rstn, true);
  const ScanOracle oracle{soc->netlist, soc->scan, {{soc->cpu.rstn, true}}};
  Rng rng(16);
  const std::vector<ScanPattern> patterns = {
      random_scan_pattern(soc->netlist, soc->scan, rng, soc->cpu.rstn)};
  // Structure faults first (a whole SoC's worth), then a stride sample:
  // one slice of each batch size, offset so the slices differ.
  const std::vector<FaultId> all =
      scan_fault_sample(soc->netlist, soc->scan, u, 97);
  std::size_t offset = 0;
  std::size_t detected = 0;
  for (std::size_t batch : kBatchSizes) {
    const auto part =
        std::span(all).subspan(offset % (all.size() - batch), batch);
    expect_matches_oracle(runner, oracle, u, part, batch, patterns);
    const LaneMask chain = runner.grade(part, u);
    for (int k = 0; k < LaneMask::kWords; ++k)
      detected += static_cast<std::size_t>(std::popcount(chain.word(k)));
    offset += 1237;
  }
  EXPECT_GT(detected, 0u);
}

// A pattern's primary inputs hold for capture only. One that drives the
// reset input low captures into the plain flop at element 0; unless the
// reset constraint is back for shift-out, the reset flops behind it clear
// the captured value on its way to scan-out and its mux A-pin faults escape.
TEST(ScanKernel, PatternInputsHoldForCaptureOnly) {
  Netlist nl("reset_pattern");
  const NetId rstn = nl.add_input("rstn");
  const NetId d = nl.add_input("d");
  NetId q = nl.add_net("q0");
  nl.add_cell(CellType::kDff, "u_ff0", q, {d});
  for (int f = 1; f < 3; ++f) {
    const NetId next = nl.add_net("q" + std::to_string(f));
    nl.add_cell(CellType::kDffR, "u_ff" + std::to_string(f), next, {q, rstn});
    q = next;
  }
  nl.add_output("out", q);
  const ScanChains chains = insert_scan(nl, {});
  const ScanElement& e0 = chains.chains.at(0).elements.at(0);
  ASSERT_EQ(nl.cell(e0.flop).type, CellType::kDff);
  const FaultUniverse u(nl);
  ScanTestRunner runner(nl, chains);
  runner.set_pin_constraint(rstn, true);
  const ScanOracle oracle{nl, chains, {{rstn, true}}};
  for (bool value : {false, true}) {
    ScanPattern p;
    p.pi = {{rstn, false}, {d, value}};
    p.chain_state = {std::vector<bool>(3, !value)};
    // The A pin stuck at the complement of what element 0 captures.
    const std::vector<FaultId> faults = {u.id_of({e0.mux, 1}, !value)};
    EXPECT_EQ(runner.grade(faults, u, &p), LaneMask(1)) << value;
    EXPECT_EQ(oracle.grade(faults, u, &p), LaneMask(1)) << value;
  }
}

TEST(ScanKernel, CampaignBuildersGradeAtTheWidestLaneWidth) {
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  Rng rng(3);
  const ScanPattern pattern = random_scan_pattern(
      rig.soc->netlist, rig.chains, rng, rig.soc->cpu.rstn);
  EXPECT_EQ(make_chain_test_campaign(runner, *rig.universe).lane_width,
            kMaxLaneWidth);
  EXPECT_EQ(
      make_pattern_campaign(runner, *rig.universe, pattern, "p").lane_width,
      kMaxLaneWidth);
  std::vector<FaultId> too_many(kMaxLaneWidth);
  EXPECT_THROW(runner.grade(too_many, *rig.universe), std::invalid_argument);
}

TEST(ScanKernel, PublishesOneEvalPerCycle) {
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  std::size_t len = 0;
  for (const ScanChain& c : rig.chains.chains)
    len = std::max(len, c.elements.size());
  std::vector<FaultId> faults;
  for (FaultId f = 0; f < 200; ++f) faults.push_back(f * 7);
  obs::metrics().set_enabled(true);
  obs::metrics().reset_values();
  std::vector<std::uint64_t> evals;
  for (std::size_t n : {std::size_t{63}, std::size_t{200}, std::size_t{63}}) {
    const std::uint64_t before = obs::metrics().counter("kernel.evals").value();
    runner.grade(std::span(faults).first(n), *rig.universe);
    evals.push_back(obs::metrics().counter("kernel.evals").value() - before);
  }
  const std::uint64_t sweeps =
      obs::metrics().counter("kernel.full_sweeps").value();
  obs::metrics().set_enabled(false);
  obs::metrics().reset_values();
  for (std::uint64_t e : evals) EXPECT_EQ(e, 3 * len);
  EXPECT_EQ(sweeps, 3 * 3 * len);
}

TEST(ScanKernel, PayloadIdenticalWithMetricsOnAndOff) {
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  Rng rng(5);
  const ScanPattern pattern = random_scan_pattern(
      rig.soc->netlist, rig.chains, rng, rig.soc->cpu.rstn);
  const std::vector<CampaignTest> tests = {
      make_chain_test_campaign(runner, *rig.universe),
      make_pattern_campaign(runner, *rig.universe, pattern, "p0")};
  CampaignOptions opts;
  opts.threads = 2;
  opts.target_limit = 1500;
  const auto run = [&] {
    FaultList fl(*rig.universe);
    return CampaignEngine(*rig.universe, opts).run(fl, tests);
  };
  const CampaignResult off = run();
  obs::metrics().set_enabled(true);
  obs::metrics().reset_values();
  const CampaignResult on = run();
  const std::uint64_t evals = obs::metrics().counter("kernel.evals").value();
  obs::metrics().set_enabled(false);
  obs::metrics().reset_values();
  EXPECT_GT(evals, 0u);
  EXPECT_EQ(on, off);
  EXPECT_EQ(campaign_result_to_json(on, false).dump(),
            campaign_result_to_json(off, false).dump());
  EXPECT_GT(off.total_new_detections, 0u);
}

}  // namespace
}  // namespace olfui
