// olfui end-to-end benchmark driver: the paper's flow, timed from outside.
//
//   olfui_bench --workload W --seed N --seconds S --trace 0|1
//               --cli PATH --out RECORD.json [--spans SPANS.json]
//
// One process runs one workload for about S seconds and writes a JSON
// record (end-to-end or per-layer metrics, simulated statistics, output
// checks, host/build record) to RECORD.json; perfbench/run.py builds this
// binary and turns the record into the benchmark's result line.
//
// Workloads (the full-config SoC: 60,520-fault universe, 8-program suite):
//   sbst_stuck_at       analyzer (stuck-at) + SBST grade, in-process pool
//   sbst_transition     the same suite under the transition-delay model
//   scan_manufacturing  chain test + seeded random full-scan patterns
//   sbst_fleet          sbst_stuck_at through olfui_cli --worker processes
//
// Every layer is timed by calls into public functions (build_soc,
// FaultUniverse, build_sbst_campaign_test, OnlineUntestabilityAnalyzer::run,
// CampaignEngine::run) and, in the traced run only, by a decorator around
// every FaultBatchRunner::run_batch plus the obs::metrics() kernel
// counters. The seed is the benchmark's: it permutes the SBST program order
// (the detection set is order-invariant under fault dropping, so the pinned
// digest still checks it) and draws the scan patterns.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "core/analyzer.hpp"
#include "cpu/soc.hpp"
#include "fault/universe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sbst/sbst.hpp"
#include "scan/scan_test.hpp"
#include "sim/packed.hpp"
#include "util/lanes.hpp"
#include "util/rng.hpp"

namespace {

using namespace olfui;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Pinned outputs of the full-config SoC. A change that moves any of these
// changed what the flow computes, not how fast it computes it.

struct TableCounts {
  std::size_t structural, scan, debug_control, debug_observe, memmap;
};
constexpr TableCounts kTableStuckAt{1443, 5073, 2023, 1105, 1884};
constexpr TableCounts kTableTransition{2030, 5794, 2614, 640, 3256};
constexpr std::size_t kUniverse = 60520;
constexpr std::size_t kDetectedStuckAt = 39420;
constexpr std::size_t kDetectedTransition = 23991;
constexpr std::uint64_t kDigestStuckAt = 0xffad12345758e1c8ULL;
constexpr std::uint64_t kDigestTransition = 0x22837975fc094a1cULL;
/// Graded faults (every kScanStride-th) the chain (flush) test detects;
/// seed-independent because the chain test always runs first.
constexpr std::size_t kChainTestDetected = 2407;

/// Random full-scan patterns graded after the chain test.
constexpr int kScanPatterns = 1;
/// The scan grade covers every kScanStride-th fault: a full-universe scan
/// grade takes ~20 s (ScanTestRunner builds a simulator per call), too
/// long for a run to hold more than one; a third of the universe lets a
/// run hold several, like the SBST workloads.
constexpr FaultId kScanStride = 3;
/// A measured run alternates set-up blocks with grades until its time is
/// spent. A block sets up at least once and for at least
/// kSetupBlockSeconds (a scan set-up takes 20 ms, an SBST one 0.5 s), then
/// analyzes once. Set-up and analysis are short and single-threaded, and a
/// neighbour on a shared host slows them for seconds at a time, so their
/// samples are spread across the whole run rather than taken in one
/// stretch of it. A run holds at least kMinBlocks blocks.
constexpr double kSetupBlockSeconds = 0.2;
constexpr int kMinBlocks = 3;
/// Faults per scan oracle batch and batches re-graded by direct calls.
constexpr std::size_t kOracleBatch = 63;
constexpr std::size_t kOracleBatches = 8;

enum class Workload { kStuckAt, kTransition, kScan, kFleet };

struct Args {
  Workload workload = Workload::kStuckAt;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string cli;
  std::string out;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "olfui_bench: %s\nusage: olfui_bench --workload "
               "sbst_stuck_at|sbst_transition|scan_manufacturing|sbst_fleet "
               "--seed N --seconds S --trace 0|1 --cli PATH --out FILE "
               "[--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const std::map<std::string, Workload> names{
          {"sbst_stuck_at", Workload::kStuckAt},
          {"sbst_transition", Workload::kTransition},
          {"scan_manufacturing", Workload::kScan},
          {"sbst_fleet", Workload::kFleet}};
      const auto it = names.find(v);
      if (it == names.end()) usage(("unknown workload " + v).c_str());
      a.workload = it->second;
      a.workload_name = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) usage("bad --seed");
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(a.seconds > 0)) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1";
    } else if (arg == "--cli") {
      a.cli = v;
    } else if (arg == "--out") {
      a.out = v;
      have_out = true;
    } else if (arg == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_out) usage("--workload and --out are required");
  if (a.workload == Workload::kFleet && a.cli.empty())
    usage("sbst_fleet needs --cli");
  return a;
}

/// CPUs this process may run on (what nproc prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Grading parallelism: threads in-process, workers + coordinator on the
/// fleet. Capped so runs on larger hosts stay comparable in shape.
int host_threads() { return std::min(nproc(), 4); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// FNV-1a over the detected set's size and words.
std::uint64_t digest(const BitVec& bits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(bits.size());
  for (std::size_t w = 0; w < bits.word_count(); ++w) mix(bits.word(w));
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// The run_batch timing decorator (traced run only).

struct BatchSpan {
  int test = 0;
  int worker = 0;
  std::int64_t start_us = 0, end_us = 0;
  std::size_t faults = 0, detections = 0;
};

class SpanRecorder {
 public:
  void add(const BatchSpan& s) {
    std::lock_guard lock(mu_);
    spans_.push_back(s);
  }
  std::vector<BatchSpan> take() {
    std::lock_guard lock(mu_);
    return std::exchange(spans_, {});
  }

 private:
  std::mutex mu_;
  std::vector<BatchSpan> spans_;
};

class TimedRunner final : public FaultBatchRunner {
 public:
  TimedRunner(std::unique_ptr<FaultBatchRunner> inner, SpanRecorder& rec,
              int test)
      : inner_(std::move(inner)), rec_(&rec), test_(test) {}

  LaneMask run_batch(std::span<const FaultId> faults) override {
    const std::int64_t t0 = obs::tracer().now_us();
    const LaneMask mask = inner_->run_batch(faults);
    BatchSpan s{test_, obs::thread_lane(), t0, obs::tracer().now_us(),
                faults.size(), 0};
    for (std::size_t i = 0; i < faults.size(); ++i)
      s.detections += mask.bit(static_cast<int>(i));
    rec_->add(s);
    return mask;
  }

 private:
  std::unique_ptr<FaultBatchRunner> inner_;
  SpanRecorder* rec_;
  int test_;
};

std::vector<CampaignTest> decorate(std::vector<CampaignTest> tests,
                                   SpanRecorder& rec) {
  for (std::size_t t = 0; t < tests.size(); ++t)
    tests[t].make_runner = [inner = std::move(tests[t].make_runner), &rec,
                            t]() -> std::unique_ptr<FaultBatchRunner> {
      return std::make_unique<TimedRunner>(inner(), rec, static_cast<int>(t));
    };
  return tests;
}

// ---------------------------------------------------------------------------
// Set-up: everything before the first grade.

struct Setup {
  std::unique_ptr<Soc> soc;
  std::unique_ptr<FaultUniverse> universe;
  std::vector<SbstProgram> suite;
  std::vector<ScanPattern> patterns;
  std::unique_ptr<ScanTestRunner> scan_runner;
  std::vector<CampaignTest> tests;
  double build_soc_s = 0, universe_s = 0, tests_s = 0, total_s = 0;
  std::size_t trace_runs = 0, trace_cycles = 0, good_cycles = 0;
};

/// The program every seed grades first: the suite's strongest detector
/// under both fault models. Fault dropping makes the first program set
/// most of the campaign's work; over all 8! orders the fault-test pairs
/// spread 20% (quartiles), with it held first only 2%, so a run's work
/// stays steady while the seed still moves the per-program work.
constexpr const char* kFirstProgram = "mul";

/// The seed's program order: kFirstProgram, then a Fisher-Yates shuffle
/// of the other programs.
void permute(std::vector<SbstProgram>& suite, std::uint64_t seed) {
  const auto first = std::find_if(suite.begin(), suite.end(), [](const auto& p) {
    return p.name == kFirstProgram;
  });
  if (first == suite.end())
    throw std::runtime_error(std::string("suite has no program ") +
                             kFirstProgram);
  std::rotate(suite.begin(), first, first + 1);
  Rng rng(seed ^ 0x5B570BDE12ULL);
  for (std::size_t i = suite.size(); i > 2; --i)
    std::swap(suite[i - 1], suite[1 + rng.next_below(i - 1)]);
}

/// A seeded random full-scan pattern (every PI and chain bit uniform, the
/// reset pin held inactive so chain flops keep shifted data).
ScanPattern random_pattern(const Soc& soc, Rng& rng) {
  const Netlist& nl = soc.netlist;
  ScanPattern p;
  for (CellId ic : nl.input_cells()) {
    const NetId n = nl.cell(ic).out;
    if (n != soc.scan.se_net) p.pi[n] = rng.next_bool();
  }
  p.pi[soc.cpu.rstn] = true;
  for (const ScanChain& chain : soc.scan.chains) {
    std::vector<bool> state(chain.elements.size());
    for (std::size_t k = 0; k < state.size(); ++k) state[k] = rng.next_bool();
    p.chain_state.push_back(std::move(state));
  }
  return p;
}

FaultModel model_of(Workload w) {
  return w == Workload::kTransition ? FaultModel::kTransition
                                    : FaultModel::kStuckAt;
}

std::unique_ptr<Setup> set_up(const Args& args) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  s->soc = build_soc({});
  s->build_soc_s = seconds_since(t0);
  const auto t1 = Clock::now();
  s->universe = std::make_unique<FaultUniverse>(s->soc->netlist);
  s->universe_s = seconds_since(t1);
  auto t2 = Clock::now();
  if (args.workload == Workload::kScan) {
    s->scan_runner =
        std::make_unique<ScanTestRunner>(s->soc->netlist, s->soc->scan);
    s->scan_runner->set_pin_constraint(s->soc->cpu.rstn, true);
    Rng rng(args.seed);
    for (int p = 0; p < kScanPatterns; ++p)
      s->patterns.push_back(random_pattern(*s->soc, rng));
    s->tests.push_back(make_chain_test_campaign(*s->scan_runner, *s->universe));
    for (int p = 0; p < kScanPatterns; ++p)
      s->tests.push_back(make_pattern_campaign(
          *s->scan_runner, *s->universe, s->patterns[static_cast<std::size_t>(p)],
          "pattern_" + std::to_string(p)));
  } else {
    // Kernel width and clocking follow the engine's defaults, as
    // run_sbst_campaign does, so a changed default shows here.
    const CampaignOptions defaults;
    s->suite = build_sbst_suite(s->soc->config);
    permute(s->suite, args.seed);
    const auto topo = PackedTopology::build(s->soc->netlist);
    t2 = Clock::now();
    for (SbstProgram& sp : s->suite) {
      SbstCampaignTest t = build_sbst_campaign_test(
          *s->soc, sp, *s->universe, topo, kSbstCampaignMargin,
          /*event_driven=*/true, model_of(args.workload),
          resolve_lane_width(defaults.lane_width),
          defaults.incremental_clocking);
      s->trace_runs += t.trace->run_count();
      s->trace_cycles += static_cast<std::size_t>(t.trace->cycles);
      s->good_cycles += static_cast<std::size_t>(t.test.good_cycles);
      s->tests.push_back(std::move(t.test));
    }
  }
  s->tests_s = seconds_since(t2);
  s->total_s = seconds_since(t0);
  return s;
}

// ---------------------------------------------------------------------------
// Analysis and grading.

struct Analysis {
  AnalysisReport report;
  BitVec pruned;
  double ctor_s = 0, run_s = 0;
};

Analysis analyze(const Setup& s, FaultModel model) {
  Analysis a;
  FaultList fl(*s.universe);
  const auto t0 = Clock::now();
  OnlineUntestabilityAnalyzer analyzer(*s.soc, *s.universe);
  a.ctor_s = seconds_since(t0);
  AnalyzerOptions opts;
  opts.fault_model = model;
  const auto t1 = Clock::now();
  a.report = analyzer.run(fl, opts);
  a.run_s = seconds_since(t1);
  a.pruned = fl.untestable_mask();
  return a;
}

struct Grade {
  CampaignResult result;
  double seconds = 0;
  std::int64_t start_us = 0, end_us = 0;  ///< tracer timeline
};

/// One grading campaign over the full (unpruned) universe, so the
/// soundness invariant can be checked against everything the analyzer
/// pruned. The fleet's executor is created and shut down inside the
/// timed region: a user pays for spawning and reaping the workers.
Grade grade(const Setup& s, std::span<const CampaignTest> tests,
            const Args& args, int threads) {
  Grade g;
  FaultList fl(*s.universe);
  g.start_us = obs::tracer().now_us();
  const auto t0 = Clock::now();
  {
    CampaignOptions opts;
    opts.threads = threads;
    opts.fault_model = model_of(args.workload);
    if (args.workload == Workload::kFleet)
      opts.executor = std::make_shared<SubprocessExecutor>(
          std::vector<std::string>{args.cli, "--worker"},
          FleetOptions{.workers = std::max(1, threads - 1)});
    if (args.workload == Workload::kScan) {
      auto mask = std::make_shared<BitVec>(s.universe->size());
      for (FaultId f = 0; f < s.universe->size(); f += kScanStride)
        mask->set(f, true);
      opts.target_mask = std::move(mask);
    }
    const CampaignEngine engine(*s.universe, opts);
    g.result = engine.run(fl, tests);
  }
  g.seconds = seconds_since(t0);
  g.end_us = obs::tracer().now_us();
  return g;
}

// ---------------------------------------------------------------------------
// Output checks.

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  Json to_json() const {
    Json j = Json::object();
    j.set("attempted", attempted_);
    j.set("failed", failed_);
    Json f = Json::array();
    for (const std::string& s : failures_) f.push_back(s);
    j.set("failures", std::move(f));
    return j;
  }

 private:
  std::size_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

void check_table(Checks& c, const AnalysisReport& r, FaultModel model) {
  const TableCounts& want =
      model == FaultModel::kStuckAt ? kTableStuckAt : kTableTransition;
  const std::string m(to_string(model));
  c.expect(r.universe == kUniverse, m + " universe " + std::to_string(r.universe));
  c.expect(r.structural_baseline == want.structural,
           m + " Table I structural " + std::to_string(r.structural_baseline));
  c.expect(r.scan == want.scan, m + " Table I scan " + std::to_string(r.scan));
  c.expect(r.debug_control == want.debug_control,
           m + " Table I debug control " + std::to_string(r.debug_control));
  c.expect(r.debug_observe == want.debug_observe,
           m + " Table I debug observe " + std::to_string(r.debug_observe));
  c.expect(r.memmap == want.memmap,
           m + " Table I memory " + std::to_string(r.memmap));
}

/// The detection set of a graded SBST campaign: pinned count and digest,
/// and the paper's soundness invariant (nothing the analyzer pruned is
/// ever detected in mission mode).
void check_sbst(Checks& c, const CampaignResult& r, const Analysis& a,
                FaultModel model) {
  const bool sa = model == FaultModel::kStuckAt;
  const std::size_t want = sa ? kDetectedStuckAt : kDetectedTransition;
  const std::uint64_t want_digest = sa ? kDigestStuckAt : kDigestTransition;
  const std::size_t got = r.detected.count();
  c.expect(got == want, "detected " + std::to_string(got) + " != " +
                            std::to_string(want));
  c.expect(digest(r.detected) == want_digest,
           "detection digest " + word_to_hex(digest(r.detected)));
  BitVec both = r.detected;
  both &= a.pruned;
  c.expect(both.none(), "soundness: " + std::to_string(both.count()) +
                            " pruned faults detected");
  c.expect(r.stats.cache == "off", "result cache " + r.stats.cache);
}

/// Scan grading: the chain test's pinned yield, and a seeded sample of
/// faults re-graded by direct single-threaded kernel calls.
void check_scan(Checks& c, const CampaignResult& r, const Setup& s,
                std::uint64_t seed) {
  c.expect(!r.tests.empty() && r.tests[0].new_detections == kChainTestDetected,
           "chain test detections " +
               std::to_string(r.tests.empty() ? 0 : r.tests[0].new_detections));
  Rng rng(seed ^ 0x0AC1E5ULL);
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < kOracleBatches; ++b) {
    std::vector<FaultId> batch;
    for (std::size_t i = 0; i < kOracleBatch; ++i)
      batch.push_back(static_cast<FaultId>(
          kScanStride * rng.next_below(s.universe->size() / kScanStride)));
    std::uint64_t ref = s.scan_runner->run_chain_test(batch, *s.universe);
    for (const ScanPattern& p : s.patterns)
      ref |= s.scan_runner->run_pattern(batch, *s.universe, p);
    for (std::size_t i = 0; i < batch.size(); ++i)
      mismatches += ((ref >> i) & 1) != r.detected.get(batch[i]);
  }
  c.expect(mismatches == 0, "scan oracle: " + std::to_string(mismatches) +
                                " sampled faults disagree");
  c.expect(r.stats.cache == "off", "result cache " + r.stats.cache);
}

// ---------------------------------------------------------------------------
// Per-layer attribution from the decorator's spans and the kernel counters.

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  Json to_json() const {
    Json j = Json::object();
    for (const auto& [name, vu] : items) {
      Json m = Json::object();
      m.set("value", vu.first);
      m.set("unit", vu.second);
      j.set(name, std::move(m));
    }
    return j;
  }
};

/// Campaign and fsim layers from the batch spans of one in-process grade.
void span_metrics(Metrics& m, const std::vector<BatchSpan>& spans,
                  const Grade& g, const Setup& s, int threads, bool sbst) {
  const double wall_us = static_cast<double>(g.end_us - g.start_us);
  std::vector<double> ms;
  double busy_us = 0;
  std::size_t faults = 0, detections = 0;
  for (const BatchSpan& b : spans) {
    const double d = static_cast<double>(b.end_us - b.start_us);
    busy_us += d;
    ms.push_back(d / 1000.0);
    faults += b.faults;
    detections += b.detections;
  }
  // Self time: grade wall not covered by any batch span.
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const BatchSpan& b : spans) iv.push_back({b.start_us, b.end_us});
  std::sort(iv.begin(), iv.end());
  double covered_us = 0;
  std::int64_t cur_s = 0, cur_e = -1;
  for (const auto& [a, e] : iv) {
    if (a > cur_e) {
      if (cur_e >= cur_s) covered_us += static_cast<double>(cur_e - cur_s);
      cur_s = a;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e >= cur_s) covered_us += static_cast<double>(cur_e - cur_s);
  // Tail: per test, from the first worker going idle to the last batch end.
  double tail_us = 0;
  std::vector<double> test_window_s(s.tests.size(), 0);
  std::vector<double> test_busy_s(s.tests.size(), 0);
  std::vector<std::size_t> test_det(s.tests.size(), 0);
  for (std::size_t t = 0; t < s.tests.size(); ++t) {
    std::map<int, std::int64_t> last_end;
    std::int64_t first = INT64_MAX, last = INT64_MIN;
    for (const BatchSpan& b : spans) {
      if (b.test != static_cast<int>(t)) continue;
      first = std::min(first, b.start_us);
      last = std::max(last, b.end_us);
      auto& le = last_end[b.worker];
      le = std::max(le, b.end_us);
      test_busy_s[t] += static_cast<double>(b.end_us - b.start_us) / 1e6;
      test_det[t] += b.detections;
    }
    if (last < first) continue;
    std::int64_t first_idle = last;
    if (static_cast<int>(last_end.size()) < threads) first_idle = first;
    for (const auto& [w, e] : last_end) first_idle = std::min(first_idle, e);
    tail_us += static_cast<double>(last - first_idle);
    test_window_s[t] = static_cast<double>(last - first) / 1e6;
  }
  const std::size_t batches = spans.size();
  const int lanes = resolve_lane_width(CampaignOptions{}.lane_width);
  m.set("campaign.batches", static_cast<double>(batches), "count");
  m.set("campaign.occupancy",
        batches ? static_cast<double>(faults) /
                      (static_cast<double>(batches) * (lanes - 1))
                : 0,
        "ratio");
  m.set("campaign.busy_share", wall_us > 0 ? busy_us / (threads * wall_us) : 0,
        "ratio");
  m.set("campaign.tail_s", tail_us / 1e6, "s");
  m.set("campaign.self_s", (wall_us - covered_us) / 1e6, "s");
  m.set("fsim.batch_busy_s", busy_us / 1e6, "s");
  m.set("fsim.batch_ms_p50", percentile(ms, 50), "ms");
  m.set("fsim.batch_ms_p99", percentile(ms, 99), "ms");
  m.set("fsim.detect_yield",
        faults ? static_cast<double>(detections) / static_cast<double>(faults)
               : 0,
        "ratio");
  if (sbst) {
    for (std::size_t t = 0; t < s.tests.size(); ++t) {
      m.set("fsim.busy_s." + s.tests[t].name, test_busy_s[t], "s");
      m.set("fsim.detections_per_s." + s.tests[t].name,
            test_busy_s[t] > 0 ? static_cast<double>(test_det[t]) / test_busy_s[t]
                               : 0,
            "1/s");
    }
  } else {
    // n/a on scan: no SBST program runs.
    for (const SbstProgram& p : build_sbst_suite(s.soc->config)) {
      m.set("fsim.busy_s." + p.name, 0, "s");
      m.set("fsim.detections_per_s." + p.name, 0, "1/s");
    }
    m.set("scan.chain_test_s", test_window_s.empty() ? 0 : test_window_s[0], "s");
    double pat = 0;
    for (std::size_t t = 1; t < test_window_s.size(); ++t) pat += test_window_s[t];
    m.set("scan.pattern_s",
          test_window_s.size() > 1 ? pat / static_cast<double>(test_window_s.size() - 1)
                                   : 0,
          "s");
  }
}

/// The same layers for a fleet grade, from the executor's per-shard times
/// (batches run in worker processes, out of the decorator's reach).
void fleet_shard_metrics(Metrics& m, const Grade& g, int workers) {
  const auto& st = g.result.stats;
  std::vector<double> ms;
  double busy = 0;
  for (double x : st.shard_seconds) {
    busy += x;
    ms.push_back(x * 1000.0);
  }
  const int lanes = resolve_lane_width(CampaignOptions{}.lane_width);
  m.set("campaign.batches", static_cast<double>(st.batches), "count");
  m.set("campaign.occupancy",
        st.batches ? static_cast<double>(st.faults_simulated) /
                         (static_cast<double>(st.batches) * (lanes - 1))
                   : 0,
        "ratio");
  m.set("campaign.busy_share", g.seconds > 0 ? busy / (workers * g.seconds) : 0,
        "ratio");
  m.set("campaign.tail_s", 0, "s");  // n/a: batches run in worker processes
  m.set("campaign.self_s", 0, "s");  // n/a
  m.set("fsim.batch_busy_s", busy, "s");
  m.set("fsim.batch_ms_p50", percentile(ms, 50), "ms");
  m.set("fsim.batch_ms_p99", percentile(ms, 99), "ms");
  m.set("fsim.detect_yield",
        st.faults_simulated ? static_cast<double>(g.result.total_new_detections) /
                                  static_cast<double>(st.faults_simulated)
                            : 0,
        "ratio");
  std::size_t k = 0;
  for (const CampaignResult::PerTest& pt : g.result.tests) {
    double b = 0;
    for (std::size_t i = 0; i < pt.batches && k < st.shard_seconds.size(); ++i)
      b += st.shard_seconds[k++];
    m.set("fsim.busy_s." + pt.name, b, "s");
    m.set("fsim.detections_per_s." + pt.name,
          b > 0 ? static_cast<double>(pt.new_detections) / b : 0, "1/s");
  }
}

void kernel_metrics(Metrics& m, double batch_busy_s) {
  obs::MetricsRegistry& r = obs::metrics();
  const auto v = [&](const char* name) {
    return static_cast<double>(r.counter(name).value());
  };
  const double drained = v("kernel.events_drained");
  const double latched = v("kernel.flops_latched");
  const double skipped = v("kernel.flops_skipped");
  m.set("sim.evals", v("kernel.evals"), "count");
  m.set("sim.events_drained", drained, "count");
  m.set("sim.cells_evaluated", v("kernel.cells_evaluated"), "count");
  m.set("sim.quiet_ratio", drained > 0 ? v("kernel.quiet_cells") / drained : 0,
        "ratio");
  m.set("sim.full_sweeps", v("kernel.full_sweeps"), "count");
  m.set("sim.flops_latched", latched, "count");
  m.set("sim.latch_skip_ratio",
        latched + skipped > 0 ? skipped / (latched + skipped) : 0, "ratio");
  m.set("sim.ns_per_event", drained > 0 ? batch_busy_s * 1e9 / drained : 0,
        "ns");
}

/// Moves the decorator's spans onto the shared tracer timeline.
void record_spans(const std::vector<BatchSpan>& spans, const Setup& s) {
  for (const BatchSpan& b : spans) {
    obs::TraceEvent ev;
    ev.name = "run_batch";
    ev.cat = "bench";
    ev.ts_us = b.start_us;
    ev.dur_us = b.end_us - b.start_us;
    ev.tid = b.worker;
    ev.args.emplace_back("test", Json(s.tests[static_cast<std::size_t>(b.test)].name));
    ev.args.emplace_back("faults", Json(b.faults));
    ev.args.emplace_back("detections", Json(b.detections));
    obs::tracer().record(std::move(ev));
  }
}

// ---------------------------------------------------------------------------

/// The processor brand string (CPUID leaves 0x80000002-4).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    if (!__get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3]))
      return "unknown";
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

Json host_record(const Args& args, int threads) {
  Json h = Json::object();
  h.set("nproc", nproc());
  h.set("cpu_model", cpu_model());
  h.set("compiler", __VERSION__);
  h.set("build_type", OLFUI_BENCH_BUILD_TYPE);
  h.set("lane_width_256_resolves_to", resolve_lane_width(256));
  h.set("lane_width", resolve_lane_width(CampaignOptions{}.lane_width));
  if (args.workload == Workload::kFleet) {
    h.set("workers", std::max(1, threads - 1));
    h.set("coordinator_threads", 1);
  } else {
    h.set("threads", threads);
  }
  return h;
}

int run(const Args& args) {
  const auto process_t0 = Clock::now();
  const int threads = host_threads();
  const FaultModel model = model_of(args.workload);
  const bool sbst = args.workload != Workload::kScan;
  Checks checks;

  std::vector<double> setup_s, build_soc_s, universe_s, tests_s;
  std::vector<double> analysis_s, ctor_s, grade_s;
  std::unique_ptr<Setup> s;
  Analysis analysis;
  std::vector<Grade> grades;
  const auto set_up_once = [&] {
    s.reset();
    s = set_up(args);
    setup_s.push_back(s->total_s);
    build_soc_s.push_back(s->build_soc_s);
    universe_s.push_back(s->universe_s);
    tests_s.push_back(s->tests_s);
  };
  const auto analyze_once = [&] {
    analysis = analyze(*s, model);
    analysis_s.push_back(analysis.run_s);
    ctor_s.push_back(analysis.ctor_s);
    check_table(checks, analysis.report, model);
  };
  const auto grade_once = [&](std::span<const CampaignTest> tests) {
    grades.push_back(grade(*s, tests, args, threads));
    const Grade& g = grades.back();
    if (sbst) check_sbst(checks, g.result, analysis, model);
    else check_scan(checks, g.result, *s, args.seed);
    return g.seconds;
  };
  const auto set_up_block = [&] {
    const auto t0 = Clock::now();
    do set_up_once(); while (seconds_since(t0) < kSetupBlockSeconds);
    analyze_once();
  };

  SpanRecorder recorder;
  std::vector<BatchSpan> spans;
  double traced_grade_s = 0;
  double rss_mb = 0;
  if (!args.trace) {
    set_up_block();
    // At least one grade; another only if it and the block after it fit
    // in the run's time, with room left on the fleet for the in-process
    // reference grade below.
    const double grades_left = args.workload == Workload::kFleet ? 2 : 1;
    for (;;) {
      grade_s.push_back(grade_once(s->tests));
      // Peak memory of one flow (what a user running it once sees): the
      // fleet coordinator's peak keeps growing with every further grade.
      if (grades.size() == 1) rss_mb = peak_rss_mb();
      const auto b0 = Clock::now();
      set_up_block();
      if (seconds_since(process_t0) + grades_left * grade_s.back() +
              seconds_since(b0) >
          args.seconds)
        break;
    }
    while (static_cast<int>(analysis_s.size()) < kMinBlocks) set_up_block();
  } else {
    // One untraced grade, then one with the decorator, the tracer and the
    // kernel counters on: their ratio is the tracing overhead.
    for (int i = 0; i < kMinBlocks; ++i) set_up_block();
    grade_s.push_back(grade_once(s->tests));
    obs::tracer().set_enabled(true);
    obs::tracer().set_process_label(0, "olfui_bench");
    obs::metrics().set_enabled(true);
    obs::metrics().reset_values();
    traced_grade_s = grade_once(decorate(s->tests, recorder));
    obs::tracer().set_enabled(false);
    obs::metrics().set_enabled(false);
    spans = recorder.take();
  }

  if (args.workload == Workload::kFleet) {
    // The fleet's deterministic payload must be byte-identical to the
    // in-process pool's on the same tests.
    Args inproc = args;
    inproc.workload = Workload::kStuckAt;
    const Grade ref = grade(*s, s->tests, inproc, threads);
    const std::string want =
        campaign_result_to_json(ref.result, false).dump();
    for (const Grade& g : grades)
      checks.expect(campaign_result_to_json(g.result, false).dump() == want,
                    "fleet payload differs from the in-process payload");
  }

  const Grade& g = grades.front();
  const CampaignResult::RuntimeStats& st = g.result.stats;
  std::size_t recovery_failed = 0, shard_ops = 0;
  for (const Grade& x : grades) {
    recovery_failed += x.result.stats.respawns + x.result.stats.shard_reissues +
                       x.result.stats.degraded_shards;
    shard_ops += x.result.stats.batches;
  }
  const std::size_t attempted = checks.attempted() + shard_ops;
  const std::size_t failed = checks.failed() + recovery_failed;

  Json rec = Json::object();
  rec.set("workload", args.workload_name);
  rec.set("seed", static_cast<double>(args.seed));
  rec.set("trace", args.trace);
  rec.set("correct", checks.failed() == 0);
  rec.set("attempted", attempted);
  rec.set("failed", failed);
  rec.set("checks", checks.to_json());
  rec.set("host", host_record(args, threads));

  Json order = Json::array();
  for (const CampaignTest& t : s->tests) order.push_back(t.name);
  const double pruned = static_cast<double>(analysis.pruned.count());
  const double det = static_cast<double>(g.result.detected.count());
  const double uni = static_cast<double>(s->universe->size());
  Json sim = Json::object();
  sim.set("note",
          "simulated statistics of the MiniRISC32 gate-level model; the model "
          "is unvalidated against silicon");
  sim.set("fault_model", std::string(to_string(model)));
  sim.set("test_order", std::move(order));
  sim.set("universe", s->universe->size());
  sim.set("detected", g.result.detected.count());
  sim.set("detected_digest", word_to_hex(digest(g.result.detected)));
  sim.set("analyzer_pruned", analysis.pruned.count());
  sim.set("raw_coverage", uni > 0 ? det / uni : 0);
  sim.set("pruned_coverage", uni > pruned ? det / (uni - pruned) : 0);
  sim.set("faults_simulated", st.faults_simulated);
  sim.set("batches", st.batches);
  sim.set("good_cycles", s->good_cycles);
  sim.set("table1", analysis.report.table1());
  sim.set("paper_table1_context",
          "paper (e200z0-class core, 214,930 faults, a different design): "
          "scan 8.9%, debug 3.2%, memory 1.7%, total 13.8%; context only, "
          "no error figure is implied");
  rec.set("simulated", std::move(sim));

  // The analysis is single-threaded and short, and on a shared host its
  // time is bimodal (uncontended vs a neighbour thrashing the shared
  // cache: about 2x apart, in stretches of seconds). The fastest sample
  // of the run is its uncontended time; a median would report the
  // neighbour's duty cycle instead.
  const double setup = median(setup_s);
  const double analysis_best = *std::min_element(analysis_s.begin(), analysis_s.end());
  const double grade_med = median(grade_s);
  Json runs = Json::object();
  const auto series = [](const std::vector<double>& v) {
    Json a = Json::array();
    for (double x : v) a.push_back(x);
    return a;
  };
  runs.set("setup_s", series(setup_s));
  runs.set("analysis_s", series(analysis_s));
  runs.set("grade_s", series(grade_s));
  rec.set("samples", std::move(runs));

  Metrics m;
  if (!args.trace) {
    m.set("setup_s", setup, "s");
    m.set("analysis_s", analysis_best, "s");
    m.set("grade_s", grade_med, "s");
    m.set("flow_s", setup + analysis_best + grade_med, "s");
    m.set("faults_per_s",
          grade_med > 0 ? static_cast<double>(st.faults_simulated) / grade_med
                        : 0,
          "1/s");
    m.set("peak_rss_mb", rss_mb, "MB");
    rec.set("end_to_end", m.to_json());
  } else {
    const Grade& traced = grades.back();
    m.set("cpu.build_soc_s", median(build_soc_s), "s");
    m.set("fault.universe_s", median(universe_s), "s");
    m.set("sbst.trace_s", sbst ? median(tests_s) : 0, "s");
    m.set("fsim.trace_runs", static_cast<double>(s->trace_runs), "count");
    m.set("fsim.trace_cycles", static_cast<double>(s->trace_cycles), "count");
    m.set("core.analyzer_ctor_s", median(ctor_s), "s");
    m.set("core.analysis_run_s", analysis_best, "s");
    m.set("core.pruned", pruned, "count");
    const int workers = std::max(1, threads - 1);
    double batch_busy_s = 0;
    if (args.workload == Workload::kFleet) {
      fleet_shard_metrics(m, traced, workers);
      for (double x : traced.result.stats.shard_seconds) batch_busy_s += x;
    } else {
      span_metrics(m, spans, traced, *s, threads, sbst);
      for (const BatchSpan& b : spans)
        batch_busy_s += static_cast<double>(b.end_us - b.start_us) / 1e6;
    }
    if (sbst) {
      m.set("scan.chain_test_s", 0, "s");  // n/a on SBST workloads
      m.set("scan.pattern_s", 0, "s");
    }
    // ScanTestRunner publishes no kernel counters: sim.* read 0 on scan.
    kernel_metrics(m, batch_busy_s);
    const auto& ts = traced.result.stats;
    double shard_s = 0;
    for (double x : ts.shard_seconds) shard_s += x;
    const int graders = args.workload == Workload::kFleet ? workers : threads;
    m.set("executor.shard_s", shard_s, "s");
    m.set("executor.wire_share",
          traced.seconds > 0 ? 1.0 - shard_s / (graders * traced.seconds) : 0,
          "ratio");
    m.set("executor.respawns", static_cast<double>(ts.respawns), "count");
    m.set("executor.shard_reissues", static_cast<double>(ts.shard_reissues),
          "count");
    m.set("executor.timeouts", static_cast<double>(ts.timeouts), "count");
    m.set("executor.degraded_shards", static_cast<double>(ts.degraded_shards),
          "count");
    m.set("trace.overhead", grade_med > 0 ? traced_grade_s / grade_med : 0,
          "ratio");
    rec.set("per_layer", m.to_json());
    if (!args.spans.empty()) {
      obs::tracer().set_enabled(true);
      record_spans(spans, *s);
      obs::tracer().set_enabled(false);
      std::ofstream out(args.spans);
      out << obs::tracer().to_json().dump() << "\n";
    }
  }

  std::ofstream out(args.out);
  out << rec.dump(2) << "\n";
  if (!out) {
    std::fprintf(stderr, "olfui_bench: cannot write %s\n", args.out.c_str());
    return 1;
  }

  std::printf("workload %s  seed %llu  %s  threads %d\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", threads);
  for (const auto& [name, vu] : m.items)
    std::printf("  %-34s %14.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  std::printf("simulated (model unvalidated against silicon): detected %zu / "
              "%zu, raw %.2f%%, pruned %.2f%%, %zu fault-test pairs, %zu good "
              "cycles\n",
              g.result.detected.count(), s->universe->size(),
              uni > 0 ? 100.0 * det / uni : 0,
              uni > pruned ? 100.0 * det / (uni - pruned) : 0,
              st.faults_simulated, s->good_cycles);
  std::printf("checks: %zu attempted, %zu failed\n", checks.attempted(),
              checks.failed());
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "olfui_bench: %s\n", e.what());
    return 1;
  }
}
