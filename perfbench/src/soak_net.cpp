// soak-net: a chaos campaign over the net/* cells — 256 live-checked
// units of the paper's ss-Byz-Clock-Sync (oracle coin, n = 7), each run
// for its full 8000-beat budget under sampled drops, phantoms, corruption
// and eclipse/partition/delay/reorder delivery, one worker. It exercises
// sim/delivery, trace emission, the streaming InvariantCore and the chaos
// sampler; the detector and the field layer are idle.
//
// Besides the live verdict, every unit gets the benchmark's own check,
// computed from the correct nodes' clocks: once the unit's declared faults
// are over, all correct clocks must agree and step +1 mod k, and the
// synchronized suffix must start where the live verdict says it does.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "harness/chaos.h"
#include "harness/live_check.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "support/check.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ssbft::Beat;
using ssbft::ClockValue;

constexpr std::uint64_t kUnits = 256;
constexpr std::uint64_t kChunkUnits = 16;  // divides kUnits

ClockValue modulus_of(const ssbft::Engine& e) {
  const auto* p =
      dynamic_cast<const ssbft::ClockProtocol*>(&e.node(e.correct_ids()[0]));
  SSBFT_REQUIRE(p != nullptr);
  return p->modulus();
}

// Tracks the final run of beats on which all correct clocks agree and
// step +1 mod k. Beats inside the plan's network-fault horizon and beats
// on which the plan corrupts a correct node break the run, as the checker
// treats them (a scheduled corruption of a faulty node is a no-op).
class ClockWatch {
 public:
  explicit ClockWatch(const ssbft::Engine& e)
      : horizon_(e.fault_plan().network_quiescence()), k_(modulus_of(e)) {
    for (const auto& [beat, ids] : e.fault_plan().corruptions) {
      for (ssbft::NodeId id : ids) {
        if (!e.is_faulty(id)) {
          corrupt_beats_.push_back(beat);
          break;
        }
      }
    }
  }

  void observe(Beat b, const std::vector<ClockValue>& clocks) {
    bool agree = !clocks.empty();
    for (ClockValue c : clocks) agree = agree && c == clocks.front();
    if (b < horizon_ || !agree ||
        std::binary_search(corrupt_beats_.begin(), corrupt_beats_.end(), b)) {
      in_run_ = false;
      return;
    }
    if (in_run_ && clocks.front() == (prev_ + 1) % k_) {
      ++length_;
    } else {
      in_run_ = true;
      start_ = b;
      length_ = 1;
    }
    prev_ = clocks.front();
  }

  bool converged(std::uint64_t window) const {
    return in_run_ && length_ >= window;
  }
  Beat synced_at() const { return start_; }

 private:
  std::vector<Beat> corrupt_beats_;  // sorted (the plan's map order)
  Beat horizon_;
  ClockValue k_;
  bool in_run_ = false;
  Beat start_ = 0;
  std::uint64_t length_ = 0;
  ClockValue prev_ = 0;
};

// Feeds a ClockWatch at the start of every beat with the clocks the
// previous beat ended on.
class WatchListener final : public ssbft::BeatListener {
 public:
  explicit WatchListener(const ssbft::Engine* engine)
      : watch(*engine), engine_(engine) {}
  void on_beat(Beat beat) override {
    if (beat > 0) watch.observe(beat - 1, engine_->correct_clocks());
  }

  ClockWatch watch;

 private:
  const ssbft::Engine* engine_;
};

struct Campaign {
  std::vector<const ssbft::ScenarioSpec*> specs;  // net/*, registry order
  ssbft::FaultPlanGenerator gen;

  explicit Campaign(std::uint64_t seed)
      : specs(ssbft::match_scenarios("net/*")), gen(seed) {
    SSBFT_REQUIRE(!specs.empty());
  }
  const ssbft::ScenarioSpec& spec(std::uint64_t u) const {
    return *specs[u % specs.size()];
  }
  ssbft::ChaosUnit sample(std::uint64_t u) const {
    const ssbft::ScenarioSpec& s = spec(u);
    return gen.make_unit(u, s.name, s.world.n, s.world.actual, s.max_beats);
  }
};

// The chaos unit's world: the cell's world with the sampled plan and
// faulty placement (as `ssbft_bench soak` builds it).
ssbft::World unit_world(const ssbft::ScenarioSpec& spec,
                        const ssbft::ChaosUnit& unit) {
  ssbft::World w = spec.world;
  w.faults = unit.plan;
  w.faulty_override = unit.faulty;
  return w;
}

struct UnitResult {
  ssbft::TrialOutcome live;
  bool own_converged = false;
  Beat own_synced_at = 0;
  UnitTraffic traffic;
  double seconds = 0.0;  // built engine handed over -> unit done
};

struct Round {
  std::vector<UnitResult> units;
  double seconds = 0.0;  // the sweep
  double setup_s = 0.0;  // plan sampling + engine builds

  std::uint64_t beats() const {
    std::uint64_t b = 0;
    for (const UnitResult& u : units) b += u.traffic.beats;
    return b;
  }
};

Round sweep_round(const Campaign& c, const Options& opts) {
  Round r;
  r.units.resize(kUnits);
  std::vector<ssbft::ChaosUnit> units;
  const std::uint64_t s0 = now_ns();
  for (std::uint64_t u = 0; u < kUnits; ++u) units.push_back(c.sample(u));
  const std::uint64_t sample_ns = now_ns() - s0;

  std::atomic<std::uint64_t> build_ns{0};
  std::vector<ssbft::SweepCell> cells;
  for (std::uint64_t u = 0; u < kUnits; ++u) {
    const ssbft::ScenarioSpec& spec = c.spec(u);
    const ssbft::World w = unit_world(spec, units[u]);
    ssbft::RunnerConfig rc = ssbft::scenario_runner_config(spec);
    rc.trials = 1;
    rc.base_seed = units[u].engine_seed;
    const std::uint64_t window = rc.convergence.confirm_window;
    UnitResult* out = &r.units[u];
    const bool flip = opts.inject == "clock" && u == 0;
    auto watch_unit = [out, window, flip](ssbft::EngineBundle& b,
                                          std::uint64_t) {
      auto listener = std::make_shared<WatchListener>(b.engine.get());
      b.engine->add_listener(listener.get());
      const std::uint64_t start = now_ns();
      probe_bundle(b, [out, window, flip, listener, start](const ssbft::Engine& e) {
        out->seconds = static_cast<double>(now_ns() - start) / 1e9;
        std::vector<ClockValue> clocks = e.correct_clocks();
        if (flip) clocks.front() ^= 1;
        listener->watch.observe(e.beat() - 1, clocks);
        out->own_converged = listener->watch.converged(window);
        out->own_synced_at = listener->watch.synced_at();
        out->traffic = traffic_of(e);
      });
    };
    cells.push_back({"chaos/s" + std::to_string(opts.seed) + "/u" +
                         std::to_string(u) + "/" + spec.name,
                     timed_builder(ssbft::build_world(spec.family, w),
                                   &build_ns, watch_unit),
                     rc});
  }
  ssbft::SweepOptions so;
  so.jobs = 1;
  so.live_check = true;
  const std::uint64_t t0 = now_ns();
  const ssbft::SweepResult res = ssbft::run_sweep_ex(cells, so);
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.setup_s = static_cast<double>(sample_ns + build_ns.load()) / 1e9;
  for (const ssbft::SweepUnitResult& u : res.units) r.units[u.cell].live = u.outcome;
  return r;
}

std::string unit_name(const Campaign& c, std::uint64_t u) {
  return "chaos unit " + std::to_string(u) + " (" + c.spec(u).name + ")";
}

bool same_unit(const UnitResult& a, const UnitResult& b) {
  return a.live.converged == b.live.converged &&
         a.live.synced_at == b.live.synced_at &&
         a.live.check_violations == b.live.check_violations &&
         a.traffic.beats == b.traffic.beats &&
         a.traffic.messages == b.traffic.messages &&
         a.traffic.bytes == b.traffic.bytes &&
         a.traffic.net_events == b.traffic.net_events;
}

void check_round(const Campaign& c, const Round& r, const Round& first,
                 Report& report) {
  for (std::uint64_t u = 0; u < kUnits; ++u) {
    const UnitResult& x = r.units[u];
    report.check(x.live.check_violations == 0,
                 unit_name(c, u) + ": live invariant violations");
    report.check(x.live.converged && x.own_converged &&
                     x.own_synced_at == x.live.synced_at,
                 unit_name(c, u) + ": clock check disagrees with the live "
                                   "verdict (own synced_at " +
                     std::to_string(x.own_synced_at) + ", live " +
                     std::to_string(x.live.synced_at) + ")");
    report.check(same_unit(x, first.units[u]),
                 unit_name(c, u) + " did not replay bit-identically");
  }
}

void untraced(const Options& opts, const Campaign& c, Report& report) {
  std::vector<Round> rounds;
  repeat_rounds(opts.seconds, [&] {
    rounds.push_back(sweep_round(c, opts));
    check_round(c, rounds.back(), rounds.front(), report);
    return rounds.back().seconds;
  });
  // Rates of fixed chunks of consecutive units (the same units every
  // round); the reported rate is their fast decile.
  std::vector<double> rates, setups;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    for (std::uint64_t first = 0; first < kUnits; first += kChunkUnits) {
      std::uint64_t chunk_beats = 0;
      double chunk_seconds = 0.0;
      for (std::uint64_t u = first; u < first + kChunkUnits; ++u) {
        chunk_beats += r.units[u].traffic.beats;
        chunk_seconds += r.units[u].seconds;
      }
      rates.push_back(static_cast<double>(chunk_beats) / chunk_seconds);
    }
  }
  std::uint64_t beats = 0, bytes = 0, msgs = 0, synced = 0, sync_sum = 0;
  for (const UnitResult& u : rounds.front().units) {
    beats += u.traffic.beats;
    bytes += u.traffic.bytes;
    msgs += u.traffic.messages;
    if (u.live.converged) {
      ++synced;
      sync_sum += u.live.synced_at;
    }
  }
  report.set("setup_s", median(setups), "s");
  report.set("beats_per_s", fast_decile(rates), "1/s");
  set_traffic_metrics(report, beats, bytes, msgs,
                      synced == 0 ? 0.0 : static_cast<double>(sync_sum) / synced);
}

// The live-checked unit (harness/sweep.cpp's run_unit) replayed through
// public calls: the StreamingChecker sits behind a timing TraceSink and
// run_beat is timed beat by beat.
void traced(const Options& opts, const Campaign& c, Report& report) {
  const Round ref = sweep_round(c, opts);
  check_round(c, ref, ref, report);
  const double untraced_rate = static_cast<double>(ref.beats()) / ref.seconds;

  std::uint64_t sample_ns = 0, beat_ns = 0, sink_ns = 0, records = 0;
  std::uint64_t beats = 0, net_events = 0, units_run = 0;
  std::vector<double> build_ms, rates;
  repeat_rounds(opts.seconds, [&] {
    std::uint64_t round_build = 0, round_beats = 0;
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t u = 0; u < kUnits; ++u) {
      const ssbft::ScenarioSpec& spec = c.spec(u);
      ssbft::ChaosUnit unit;
      {
        ScopedTimer t(sample_ns);
        unit = c.sample(u);
      }
      const ssbft::World w = unit_world(spec, unit);
      const ssbft::RunnerConfig rc = ssbft::scenario_runner_config(spec);
      ssbft::EngineBundle bundle;
      {
        ScopedTimer t(round_build);
        bundle = ssbft::build_world(spec.family, w)(unit.engine_seed);
      }
      ssbft::Engine& e = *bundle.engine;
      ssbft::CheckOptions copts;
      copts.fault_horizon = e.fault_plan().network_quiescence();
      ssbft::StreamingChecker checker(copts);
      TimingSink sink(&checker);
      ssbft::TraceMeta meta;
      meta.scenario = "chaos/s" + std::to_string(opts.seed) + "/u" +
                      std::to_string(u) + "/" + spec.name;
      meta.seed = unit.engine_seed;
      meta.n = e.n();
      meta.f = e.f();
      for (ssbft::NodeId id = 0; id < e.n(); ++id) {
        if (e.is_faulty(id)) meta.faulty.push_back(id);
      }
      meta.max_beats = rc.convergence.max_beats;
      meta.confirm_window = rc.convergence.confirm_window;
      sink.begin_trace(meta);
      e.set_trace(&sink);
      ClockWatch watch(e);
      for (std::uint64_t i = 0; i < rc.convergence.max_beats; ++i) {
        {
          ScopedTimer t(beat_ns);
          e.run_beat();
        }
        watch.observe(e.beat() - 1, e.correct_clocks());
      }
      const ssbft::CheckResult& verdict = checker.finish();
      UnitResult x;
      x.live.converged = verdict.converged;
      x.live.synced_at = verdict.synced_at;
      x.live.check_violations = verdict.violation_count;
      x.own_converged = watch.converged(rc.convergence.confirm_window);
      x.own_synced_at = watch.synced_at();
      x.traffic = traffic_of(e);
      report.check(same_unit(x, ref.units[u]) &&
                       x.own_converged == ref.units[u].own_converged &&
                       x.own_synced_at == ref.units[u].own_synced_at,
                   unit_name(c, u) + ": traced replay differs from the sweep");
      sink_ns += sink.ns;
      records += sink.records_seen;
      round_beats += x.traffic.beats;
      net_events += x.traffic.net_events;
      ++units_run;
    }
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    beats += round_beats;
    build_ms.push_back(static_cast<double>(round_build) / 1e6);
    rates.push_back(static_cast<double>(round_beats) / secs);
    return secs;
  });
  report.set("harness.build_ms", median(build_ms), "ms");
  report.set("chaos.sample_us_per_unit",
             static_cast<double>(sample_ns) / 1e3 / units_run, "us");
  report.set("sim.beat_us", static_cast<double>(beat_ns - sink_ns) / 1e3 / beats,
             "us");
  report.set("harness.live_check_us_per_beat",
             static_cast<double>(sink_ns) / 1e3 / beats, "us");
  report.set("sim.trace_records_per_beat", static_cast<double>(records) / beats,
             "count");
  report.set("sim.net_events_per_beat", static_cast<double>(net_events) / beats,
             "count");
  report.set("tracing_overhead_pct", overhead_pct(median(rates), untraced_rate),
             "%");
}

}  // namespace

void run_soak_net(const Options& opts, Report& report) {
  const Campaign c(opts.seed);
  if (opts.trace) {
    traced(opts, c, report);
  } else {
    untraced(opts, c, report);
  }
}

}  // namespace perfbench
