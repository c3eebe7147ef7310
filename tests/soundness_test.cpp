// The paper's invariant as a standing gate, on the full-config SoC: no
// fault the analyzer prunes as on-line functionally untestable may ever be
// detected by the mission-mode SBST campaign, under either fault model.
// The grade runs through the campaign at the default lane width over the
// whole, unpruned universe, so it also pins what the flow computes: the
// Table I rows and the detected count of each model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "sbst/sbst.hpp"

namespace olfui {
namespace {

struct Pinned {
  FaultModel model;
  // Table I rows: structural, scan, debug control, debug observe, memory.
  std::size_t structural, scan, debug_control, debug_observe, memmap;
  std::size_t detected;  ///< SBST detections over the 60,520-fault universe
};

void check_model(const Pinned& want) {
  const auto soc = build_soc({});
  const FaultUniverse universe(soc->netlist);
  ASSERT_EQ(universe.size(), 60520u);
  const std::string m(to_string(want.model));

  FaultList analyzed(universe);
  OnlineUntestabilityAnalyzer analyzer(*soc, universe);
  AnalyzerOptions aopts;
  aopts.fault_model = want.model;
  const AnalysisReport r = analyzer.run(analyzed, aopts);
  EXPECT_EQ(r.structural_baseline, want.structural) << m;
  EXPECT_EQ(r.scan, want.scan) << m;
  EXPECT_EQ(r.debug_control, want.debug_control) << m;
  EXPECT_EQ(r.debug_observe, want.debug_observe) << m;
  EXPECT_EQ(r.memmap, want.memmap) << m;
  const BitVec pruned = analyzed.untestable_mask();
  ASSERT_TRUE(pruned.any()) << m;

  FaultList graded(universe);
  std::vector<SbstProgram> suite = build_sbst_suite(soc->config);
  CampaignOptions copts;
  copts.fault_model = want.model;
  const SbstCampaignResult result = run_sbst_campaign(*soc, suite, graded, {}, copts);
  EXPECT_EQ(result.campaign.detected.count(), want.detected) << m;
  BitVec both = result.campaign.detected;
  both &= pruned;
  EXPECT_TRUE(both.none()) << m << ": " << both.count()
                           << " analyzer-pruned faults detected on-line";
}

TEST(Soundness, StuckAtFullConfig) {
  check_model({FaultModel::kStuckAt, 1443, 5073, 2023, 1105, 1884, 39420});
}

TEST(Soundness, TransitionFullConfig) {
  check_model({FaultModel::kTransition, 2030, 5794, 2614, 640, 3256, 23991});
}

}  // namespace
}  // namespace olfui
