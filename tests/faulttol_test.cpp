// Fault-tolerance suite for the supervised subprocess fleet: every
// recovery path — crash, stall, truncated reply, fleet collapse — must
// complete the campaign with a detection payload and deterministic JSON
// byte-identical to an undisturbed in-process run, while the recovery
// odometer (ExecutorHealth / RuntimeStats) records what happened. Chaos
// is injected deterministically through the worker's --chaos flag (see
// ChaosSpec in executor.hpp), so each scenario is a reproducible unit
// test, not a flake lottery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "sbst/sbst.hpp"

namespace olfui {
namespace {

// ---------------------------------------------------------------------------
// Chaos spec grammar.

TEST(ChaosSpec, ParsesEveryShape) {
  const ChaosSpec none = chaos_spec_from_string("");
  EXPECT_EQ(none.mode, ChaosSpec::Mode::kNone);

  const ChaosSpec crash = chaos_spec_from_string("7:crash@3");
  EXPECT_EQ(crash.mode, ChaosSpec::Mode::kCrash);
  EXPECT_EQ(crash.seed, 7u);
  EXPECT_EQ(crash.shard, 3);
  EXPECT_FALSE(crash.all_incarnations);

  const ChaosSpec all = chaos_spec_from_string("5:stall@2:all");
  EXPECT_EQ(all.mode, ChaosSpec::Mode::kStall);
  EXPECT_EQ(all.shard, 2);
  EXPECT_TRUE(all.all_incarnations);

  EXPECT_EQ(chaos_spec_from_string("1:trunc").mode, ChaosSpec::Mode::kTrunc);

  // No explicit index: one is drawn from the seeded RNG — reproducible
  // (same seed, same shard) and within the documented [1, 4] window.
  const ChaosSpec a = chaos_spec_from_string("42:crash");
  const ChaosSpec b = chaos_spec_from_string("42:crash");
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_GE(a.shard, 1);
  EXPECT_LE(a.shard, 4);
  EXPECT_NE(chaos_spec_from_string("42:crash").shard, 0);
}

TEST(ChaosSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"crash", ":crash", "7", "7:", "x:crash",
                          "7:bogus", "7:crash@", "7:crash@0", "7:crash@x",
                          "7:crash:some"}) {
    EXPECT_THROW(chaos_spec_from_string(bad), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Wire-format errors carry real byte offsets.

TEST(ShardRequestParsing, MalformedFieldErrorsPointIntoTheLine) {
  // Render a well-formed grade request, corrupt one deep field, and check
  // the JsonError names an offset inside the line — a coordinator log
  // quoting "at offset N" must point at the offending bytes, not 0.
  std::vector<FaultId> targets{10, 11, 12, 13};
  std::vector<std::uint32_t> shards(shard_count(targets.size(), 2));
  std::iota(shards.begin(), shards.end(), 0u);
  CampaignTest test;
  test.name = "t";
  test.spec = Json::object();
  const ShardWork work{targets, 2, shards, test, FaultModel::kStuckAt,
                       100,     {}, 0};
  const std::string line = shard_request_to_json(work, work.shards);

  // The pristine line round-trips.
  const ShardRequest req = shard_request_from_json(Json::parse(line));
  EXPECT_EQ(req.test, "t");
  EXPECT_EQ(req.batch_size, 2u);
  EXPECT_EQ(req.targets, targets);

  // `what`, when given, must appear in the error: a corruption can trip
  // a later check, and the test must see the one it means.
  const auto corrupt = [&](const std::string& from, const std::string& to,
                           const std::string& what = "") {
    std::string s = line;
    const auto pos = s.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    s.replace(pos, from.size(), to);
    try {
      shard_request_from_json(Json::parse(s));
      FAIL() << "corruption " << from << " -> " << to << " was accepted";
    } catch (const JsonError& e) {
      EXPECT_GT(e.offset(), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  corrupt("\"stuck_at\"", "\"bogus_model\"");  // unknown enum value
  corrupt("\"test\":\"t\"", "\"test\":42");    // type mismatch
  // batch_size: missing (located at the request object itself, offset
  // 0), zero, and wider than lanes - 1 (63 by default, 127 at
  // "lanes":128).
  {
    std::string s = line;
    s.erase(s.find("\"batch_size\":2,"), std::string("\"batch_size\":2,").size());
    try {
      shard_request_from_json(Json::parse(s));
      FAIL() << "a request without batch_size was accepted";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("missing key 'batch_size'"),
                std::string::npos)
          << e.what();
    }
  }
  corrupt("\"batch_size\":2", "\"batch_size\":0", "batch_size must be");
  corrupt("\"batch_size\":2", "\"batch_size\":64", "batch_size must be");
  corrupt("\"batch_size\":2", "\"lanes\":128,\"batch_size\":128",
          "batch_size must be");
  // Widths outside {64, 128, 256}, and any this build lacks, are refused.
  corrupt("\"batch_size\":2", "\"lanes\":96,\"batch_size\":2", "lanes");
  if (!lane_width_supported(256))
    corrupt("\"batch_size\":2", "\"lanes\":256,\"batch_size\":2", "lanes");
  // Shard and grant ids at or past ceil(4 / 2) = 2 name no span.
  corrupt("\"shards\":[0,1]", "\"shards\":[0,2]", "past the last span");
  corrupt("\"batch_size\":2", "\"batch_size\":4",  // shard 1 is gone
          "past the last span");
  std::string grant_error;
  {
    std::string in_buf = line + "\n" + R"({"type":"grant","shards":[2]})" + "\n";
    std::FILE* in = fmemopen(in_buf.data(), in_buf.size(), "r");
    char* out_buf = nullptr;
    std::size_t out_len = 0;
    std::FILE* out = open_memstream(&out_buf, &out_len);
    struct Silent final : WorkerWorkload {
      std::size_t universe_size() override { return 100; }
      LaneMask run_batch(const ShardRequest&,
                         std::span<const FaultId>) override {
        return {};
      }
      std::uint64_t state_fingerprint(const ShardRequest&) override {
        return 0;
      }
    } workload;
    const ChaosSpec no_chaos;
    EXPECT_EQ(serve_worker(in, out, workload, &no_chaos), 1);
    std::fclose(in);
    std::fclose(out);
    grant_error.assign(out_buf, out_len);
    std::free(out_buf);
  }
  // The worker answers the out-of-range grant with a located error.
  EXPECT_NE(grant_error.find("grant: shard id past the last span"),
            std::string::npos)
      << grant_error;
  EXPECT_NE(grant_error.find("at offset"), std::string::npos) << grant_error;
}

// ---------------------------------------------------------------------------
// Recovery scenarios on the real SBST workload, driven through
// olfui_cli --worker with deterministic chaos. Each compares against an
// undisturbed in-process run of the identical campaign.

struct SbstRig {
  std::unique_ptr<Soc> soc = build_soc({});
  std::vector<SbstProgram> suite;
  std::unique_ptr<FaultUniverse> u;
  std::vector<CampaignTest> tests;

  explicit SbstRig(std::size_t keep_tests) {
    suite = build_sbst_suite(soc->config);
    if (suite.size() > keep_tests)
      suite.erase(suite.begin() + static_cast<std::ptrdiff_t>(keep_tests),
                  suite.end());
    u = std::make_unique<FaultUniverse>(soc->netlist);
    tests = build_sbst_campaign_tests(*soc, suite, *u);
  }
};

/// The recovery scenarios below are laid out in 63-fault shards (e.g. 200
/// targets = 4 shards a test), so they grade 64 lanes wide whatever the
/// default width is.
CampaignOptions scalar_options(int target_limit, double shard_timeout = 0) {
  CampaignOptions opts;
  opts.threads = 2;
  opts.lane_width = 64;
  opts.target_limit = static_cast<std::size_t>(target_limit);
  opts.shard_timeout = shard_timeout;
  return opts;
}

CampaignResult run_campaign(const FaultUniverse& u,
                            std::span<const CampaignTest> tests,
                            const CampaignOptions& opts) {
  FaultList fl(u);
  return CampaignEngine(u, opts).run(fl, tests);
}

std::vector<std::string> chaos_worker(const std::string& spec) {
  return {"./olfui_cli", "--worker", "--chaos", spec};
}

#define SKIP_WITHOUT_CLI()                                      \
  do {                                                          \
    if (::access("./olfui_cli", X_OK) != 0)                     \
      GTEST_SKIP() << "./olfui_cli not in the working directory"; \
  } while (0)

TEST(FaultTolerance, KilledWorkerShardsAreReissuedBitIdentically) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(2);
  const CampaignOptions base = scalar_options(200);
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);
  const std::string clean_json =
      campaign_result_to_json_string(clean, 2, false);

  // Both workers SIGKILL themselves on the second shard they start (chaos
  // arms only in incarnation 0, so respawns recover); their in-flight
  // shards must be re-queued and the campaign must not notice.
  FleetOptions fleet;
  fleet.workers = 2;
  fleet.backoff_base = 0.01;  // keep the unit test snappy
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("7:crash@2"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_GT(clean.total_new_detections, 0u);
  EXPECT_EQ(r, clean);
  EXPECT_EQ(r.detected, clean.detected);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false), clean_json);

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.respawns, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_EQ(h.degraded_shards, 0u);
  // The run's RuntimeStats carry the same odometer delta.
  EXPECT_EQ(r.stats.respawns, h.respawns);
  EXPECT_EQ(r.stats.shard_reissues, h.shard_reissues);
  EXPECT_EQ(r.stats.executor, "subprocess");
}

TEST(FaultTolerance, StalledWorkerTripsTheDeadlineAndIsReplaced) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(1);
  // An explicit (short) per-shard deadline: the stalled worker heartbeats
  // its first shard, then wedges; only the progress rule can catch it.
  const CampaignOptions base = scalar_options(130, 1.5);
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);

  FleetOptions fleet;
  fleet.workers = 2;
  fleet.backoff_base = 0.01;
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("5:stall@1"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_EQ(r, clean);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false),
            campaign_result_to_json_string(clean, 2, false));

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.timeouts, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_GT(h.respawns, 0u);
  EXPECT_GT(r.stats.timeouts, 0u);
}

TEST(FaultTolerance, TruncatedReplyLineIsDetectedAndReissued) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(2);
  const CampaignOptions base = scalar_options(200);
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);

  // Workers emit half a shard reply and exit 0: EOF with a nonempty line
  // buffer. The partial line must be discarded — never parsed — and the
  // announced shard regraded elsewhere.
  FleetOptions fleet;
  fleet.workers = 2;
  fleet.backoff_base = 0.01;
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("3:trunc@1"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_EQ(r, clean);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false),
            campaign_result_to_json_string(clean, 2, false));

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.respawns, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_EQ(h.degraded_shards, 0u);
}

TEST(FaultTolerance, FleetCollapseDegradesToInProcessGrading) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(1);
  const CampaignOptions base = scalar_options(130);
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);

  // ":all" keeps chaos armed across respawns: the lone worker crashes on
  // its first shard in every incarnation, the respawn budget burns down,
  // and the fleet collapses below min_workers. The campaign must degrade
  // to in-process grading — loudly, but without throwing and without
  // changing a single detection bit.
  FleetOptions fleet;
  fleet.workers = 1;
  fleet.max_respawns = 1;
  fleet.min_workers = 1;
  fleet.backoff_base = 0.01;
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("9:crash@1:all"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_EQ(r, clean);
  EXPECT_EQ(r.detected, clean.detected);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false),
            campaign_result_to_json_string(clean, 2, false));

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.degraded_shards, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_EQ(h.respawns, 1u);  // the whole budget, spent
  EXPECT_GT(r.stats.degraded_shards, 0u);
}

}  // namespace
}  // namespace olfui
