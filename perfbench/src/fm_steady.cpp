// fm-steady-n64: the scaling-large/sync-fm/n64 world (the full FM GVSS
// coin stack, n = 64, f = 21, skew attack) run to confirmed convergence,
// then for whole pipeline periods in the synchronized steady state. A beat
// takes tens of milliseconds, most of it in the field kernels and the
// masked codec; the sim and harness layers are a few percent.
#include <string>
#include <vector>

#include "coin/fm_coin.h"
#include "core/clock2.h"
#include "core/clock4.h"
#include "core/clock_sync.h"
#include "harness/scenario.h"
#include "support/check.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ssbft::ClockValue;

const char* const kCell = "scaling-large/sync-fm/n64";

// Setups per run; setup_s is their median.
constexpr int kSetups = 3;

// One steady round: ss-Byz-Clock-Sync's four phases. The embedded 4-clock
// steps its A2 2-clock every other beat and the coin pipelines advance
// every beat, so four beats repeat the same work (and the same wire bytes,
// which every steady round checks).
constexpr std::uint64_t kPeriodBeats = 4;

struct Cell {
  const ssbft::ScenarioSpec* spec;
  ssbft::RunnerConfig rc;
  std::uint64_t seed;
};

Cell make_cell(const Options& opts) {
  const ssbft::ScenarioSpec* spec = ssbft::find_scenario(kCell);
  SSBFT_REQUIRE(spec != nullptr);
  SSBFT_REQUIRE(spec->family == ssbft::Family::kClockSync &&
                spec->world.coin == ssbft::CoinKind::kFm &&
                spec->world.shared_pipeline == 0);
  const ssbft::RunnerConfig rc = ssbft::scenario_runner_config(*spec);
  return {spec, rc, rc.base_seed + seed_offset(opts.seed)};
}

// Records every beat's correct clocks (the previous beat's, at the start
// of each beat; the last beat's via finish()).
class ClockRecorder final : public ssbft::BeatListener {
 public:
  explicit ClockRecorder(const ssbft::Engine* engine) : engine_(engine) {}
  void on_beat(ssbft::Beat beat) override {
    if (beat > 0) beats.push_back(engine_->correct_clocks());
  }
  void finish() { beats.push_back(engine_->correct_clocks()); }

  std::vector<std::vector<ClockValue>> beats;

 private:
  const ssbft::Engine* engine_;
};

// One steady round of kPeriodBeats beats. Checks every beat's clocks (all
// equal, +1 mod k) and returns the time spent in run_beat.
double steady_round(ssbft::Engine& e, ClockValue k, ClockValue& expect,
                    bool flip_first, Report& report) {
  std::uint64_t ns = 0;
  for (std::uint64_t i = 0; i < kPeriodBeats; ++i) {
    {
      ScopedTimer t(ns);
      e.run_beat();
    }
    std::vector<ClockValue> clocks = e.correct_clocks();
    if (flip_first && i == 0) clocks.front() ^= 1;
    expect = (expect + 1) % k;
    bool ok = true;
    for (ClockValue c : clocks) ok = ok && c == expect;
    report.check(ok, "steady beat " + std::to_string(e.beat() - 1) +
                         ": correct clocks not equal to the expected " +
                         std::to_string(expect));
  }
  return static_cast<double>(ns) / 1e9;
}

void untraced(const Options& opts, const Cell& cell, Report& report) {
  std::vector<double> setups;
  ssbft::EngineBundle bundle;
  ssbft::ConvergenceResult first{};
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    bundle = ssbft::build_scenario(*cell.spec)(cell.seed);
    const ssbft::ConvergenceResult r =
        ssbft::measure_convergence(*bundle.engine, cell.rc.convergence);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i == 0) first = r;
    report.check(r.converged && r.synced_at == first.synced_at &&
                     r.beats_run == first.beats_run,
                 std::string(kCell) + " did not converge identically in setup " +
                     std::to_string(i));
  }
  ssbft::Engine& e = *bundle.engine;
  const ClockValue k = cell.spec->world.k;
  ClockValue expect = e.correct_clocks().front();

  const ssbft::BeatTraffic start = e.metrics().total();
  ssbft::BeatTraffic prev = start, period{};
  bool flip = opts.inject == "clock";
  std::vector<double> rates;
  std::uint64_t steady_beats = 0;
  repeat_rounds(opts.seconds, [&] {
    const double secs = steady_round(e, k, expect, flip, report);
    flip = false;
    steady_beats += kPeriodBeats;
    rates.push_back(static_cast<double>(kPeriodBeats) / secs);
    const ssbft::BeatTraffic now = e.metrics().total();
    const std::uint64_t bytes = now.correct_bytes - prev.correct_bytes;
    const std::uint64_t msgs = now.correct_messages - prev.correct_messages;
    if (rates.size() == 1) {
      period.correct_bytes = bytes;
      period.correct_messages = msgs;
    }
    report.check(bytes == period.correct_bytes && msgs == period.correct_messages,
                 "steady round " + std::to_string(rates.size()) +
                     ": wire traffic differs from the first period");
    prev = now;
    return secs;
  });
  replay_kernels(opts, report, false);

  const ssbft::BeatTraffic end = e.metrics().total();
  report.set("setup_s", median(setups), "s");
  // The median round, not the fast decile the sweep workloads use: an FM
  // round at n = 64 slows by up to 40% in stretches of seconds to minutes
  // (thread CPU time grows with wall time, so the slowdown is under the
  // VM), and the fastest rounds of a run depend on whether such a stretch
  // happened to lift during it. Over 22 windows of 100 rounds the median
  // spread 14% (interquartile range over median), the fast decile 18%
  // (README.md).
  report.set("beats_per_s", median(rates), "1/s");
  set_traffic_metrics(report, steady_beats, end.correct_bytes - start.correct_bytes,
                      end.correct_messages - start.correct_messages,
                      static_cast<double>(first.synced_at));
}

// Channel roles of ss-Byz-Clock-Sync rooted at channel 0, derived from the
// stack's own layout functions: [0,3) clock-sync phases, then the 4-clock
// (per 2-clock: its clock channel, then its coin's rounds), then the
// phase-3 coin. Coin channel base + j carries round j + 1.
enum Role { kDeal, kCross, kVote, kShare, kClock, kRoleCount };

std::vector<Role> channel_roles(const ssbft::CoinSpec& coin) {
  const auto mode = ssbft::CoinPipelineMode::kPerSubClock;
  SSBFT_REQUIRE_MSG(coin.channels == 4, "FM coin rounds: deal/cross/vote/share");
  std::vector<Role> roles(ssbft::SsByzClockSync::channels_needed(coin, mode),
                          kClock);
  auto mark_coin = [&](std::size_t base) {
    for (std::size_t j = 0; j < coin.channels; ++j) {
      roles.at(base + j) = static_cast<Role>(j);
    }
  };
  const std::size_t four = 3;
  const std::size_t two = ssbft::SsByz2Clock::channels_needed(coin);
  mark_coin(four + 1);        // A1's coin
  mark_coin(four + two + 1);  // A2's coin
  mark_coin(four + ssbft::SsByz4Clock::channels_needed(coin, mode));
  return roles;
}

void traced(const Options& opts, const Cell& cell, Report& report) {
  const ssbft::World& w = cell.spec->world;

  // Reference: the registry engine, exactly as the untraced run builds it.
  ssbft::EngineBundle ref = ssbft::build_scenario(*cell.spec)(cell.seed);
  ClockRecorder ref_clocks(ref.engine.get());
  ref.engine->add_listener(&ref_clocks);
  const ssbft::ConvergenceResult ref_conv =
      ssbft::measure_convergence(*ref.engine, cell.rc.convergence);
  ClockValue expect = ref.engine->correct_clocks().front();
  std::vector<double> ref_rates;
  repeat_rounds(opts.seconds / 2, [&] {
    const double secs = steady_round(*ref.engine, w.k, expect, false, report);
    ref_rates.push_back(static_cast<double>(kPeriodBeats) / secs);
    return secs;
  });
  ref_clocks.finish();
  const std::uint64_t steady_beats = ref_rates.size() * kPeriodBeats;

  // Rebuild of the same world with timing proxies around every node and
  // the adversary, plus per-channel byte accounting.
  const ssbft::CoinSpec coin = ssbft::fm_coin_spec();
  const auto mode = ssbft::CoinPipelineMode::kPerSubClock;
  const auto coin_base =
      static_cast<ssbft::ChannelId>(3 + ssbft::SsByz4Clock::channels_needed(coin, mode));
  StackTimes stack;
  ssbft::World tw = w;
  tw.track_channel_bytes = true;
  const ClockValue k = w.k;
  auto factory = [&stack, coin, k, mode](const ssbft::ProtocolEnv& env,
                                          ssbft::Rng rng) {
    return std::make_unique<TimingClock>(
        std::make_unique<ssbft::SsByzClockSync>(env, k, coin, rng, 0, mode),
        &stack);
  };
  std::uint64_t build_ns = 0;
  std::unique_ptr<ssbft::Engine> engine;
  {
    ScopedTimer t(build_ns);
    std::unique_ptr<ssbft::Adversary> adv;
    if (w.actual != 0) {
      adv = std::make_unique<TimingAdversary>(
          ssbft::make_attack(w.attack, w.k, coin_base, w.noise_msgs_per_beat),
          &stack);
    }
    engine = std::make_unique<ssbft::Engine>(ssbft::world_config(tw, cell.seed),
                                             factory, std::move(adv));
  }
  ssbft::Engine& e = *engine;
  ClockRecorder clocks(&e);
  e.add_listener(&clocks);
  BeatLoopTimes warm;
  const ssbft::ConvergenceResult conv =
      converge_timed(e, cell.rc.convergence, warm);
  report.check(conv.converged == ref_conv.converged &&
                   conv.synced_at == ref_conv.synced_at &&
                   conv.beats_run == ref_conv.beats_run,
               "traced rebuild converged differently from the registry engine");

  stack = StackTimes{};
  e.reset_channel_bytes();
  std::uint64_t beat_ns = 0;
  std::vector<double> rates;
  for (std::uint64_t r = 0; r < ref_rates.size(); ++r) {
    std::uint64_t round_ns = 0;
    for (std::uint64_t i = 0; i < kPeriodBeats; ++i) {
      ScopedTimer t(round_ns);
      e.run_beat();
    }
    beat_ns += round_ns;
    rates.push_back(static_cast<double>(kPeriodBeats) * 1e9 / round_ns);
  }
  clocks.finish();

  // Beat-by-beat reproduction: wire bytes, messages and clocks.
  const auto& ref_hist = ref.engine->metrics().history();
  const auto& hist = e.metrics().history();
  report.check(ref_hist.size() == hist.size() &&
                   ref_clocks.beats.size() == clocks.beats.size(),
               "traced rebuild ran a different number of beats");
  for (std::size_t b = 0; b < std::min(ref_hist.size(), hist.size()); ++b) {
    report.check(ref_hist[b].correct_bytes == hist[b].correct_bytes &&
                     ref_hist[b].correct_messages == hist[b].correct_messages &&
                     b < clocks.beats.size() && b < ref_clocks.beats.size() &&
                     ref_clocks.beats[b] == clocks.beats[b],
                 "beat " + std::to_string(b) +
                     ": traced rebuild differs from the registry engine");
  }

  const double beats = static_cast<double>(steady_beats);
  std::vector<double> role_bytes(kRoleCount, 0.0);
  const std::vector<Role> roles = channel_roles(coin);
  const std::vector<std::uint64_t>& ch = e.channel_bytes();
  for (std::size_t c = 0; c < ch.size(); ++c) {
    role_bytes[c < roles.size() ? roles[c] : kClock] += static_cast<double>(ch[c]);
  }
  const char* const role_metric[kRoleCount] = {
      "coin.deal_kib_per_beat", "coin.cross_kib_per_beat",
      "coin.vote_kib_per_beat", "coin.share_kib_per_beat",
      "core.clock_kib_per_beat"};
  for (int r = 0; r < kRoleCount; ++r) {
    report.set(role_metric[r], role_bytes[r] / 1024.0 / beats, "KiB/beat");
  }
  report.set("harness.build_ms", static_cast<double>(build_ns) / 1e6, "ms");
  report.set("sim.beat_us", static_cast<double>(beat_ns) / 1e3 / beats, "us");
  report.set("harness.detector_us_per_beat",
             static_cast<double>(warm.detector_ns) / 1e3 / warm.beats, "us");
  report.set("core.send_ms_per_beat",
             static_cast<double>(stack.send_ns) / 1e6 / beats, "ms");
  report.set("core.receive_ms_per_beat",
             static_cast<double>(stack.receive_ns) / 1e6 / beats, "ms");
  report.set("adversary.act_ms_per_beat",
             static_cast<double>(stack.act_ns) / 1e6 / beats, "ms");
  report.set("sim.plumbing_ms_per_beat",
             (static_cast<double>(beat_ns) - static_cast<double>(stack.send_ns) -
              static_cast<double>(stack.receive_ns) -
              static_cast<double>(stack.act_ns)) /
                 1e6 / beats,
             "ms");
  report.set("sim.net_events_per_beat",
             static_cast<double>(traffic_of(e).net_events) / hist.size(), "count");
  report.set("tracing_overhead_pct", overhead_pct(median(rates), median(ref_rates)),
             "%");
  replay_kernels(opts, report, true);
}

}  // namespace

void run_fm_steady(const Options& opts, Report& report) {
  const Cell cell = make_cell(opts);
  if (opts.trace) {
    traced(opts, cell, report);
  } else {
    untraced(opts, cell, report);
  }
}

}  // namespace perfbench
