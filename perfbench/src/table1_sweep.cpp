// table1-sweep: the 18 table1/* registry cells (300 units) through
// run_sweep_ex with two workers. Nearly all of its beats are Dolev-Welch
// units at n = 7..13 running to their 60000-beat cap, so it measures the
// sim beat loop, the split adversary and the convergence detector at small
// n, with the coin and field layers nearly idle.
#include <atomic>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "harness/sweep.h"
#include "support/check.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ssbft::ScenarioSpec;

enum Kind { kDw, kQueen, kKing, kSync, kSyncFm, kKindCount };
const char* const kKindNames[kKindCount] = {"dw", "queen", "king", "sync",
                                            "sync-fm"};

Kind kind_of(const ScenarioSpec& spec) {
  switch (spec.family) {
    case ssbft::Family::kDolevWelch:
      return kDw;
    case ssbft::Family::kPipelinedQueen:
      return kQueen;
    case ssbft::Family::kPipelinedKing:
      return kKing;
    case ssbft::Family::kClockSync:
      return spec.world.coin == ssbft::CoinKind::kFm ? kSyncFm : kSync;
    default:
      break;
  }
  SSBFT_REQUIRE_MSG(false, "table1 cell of an unexpected family: " << spec.name);
  return kDw;
}

struct Cell {
  const ScenarioSpec* spec;
  Kind kind;
  ssbft::EngineBuilder builder;
  ssbft::RunnerConfig cfg;  // seeds shifted by the benchmark seed
  std::uint64_t first_unit;
};

struct Grid {
  std::vector<Cell> cells;
  std::uint64_t units = 0;
};

Grid make_grid(const Options& opts) {
  Grid g;
  for (const ScenarioSpec* spec : ssbft::match_scenarios("table1/*")) {
    Cell c{spec, kind_of(*spec), ssbft::build_scenario(*spec),
           ssbft::scenario_runner_config(*spec), g.units};
    c.cfg.base_seed += seed_offset(opts.seed);
    g.units += c.cfg.trials;
    g.cells.push_back(std::move(c));
  }
  SSBFT_REQUIRE_MSG(g.cells.size() == 18, "expected the 18 table1/* cells");
  return g;
}

struct Round {
  std::vector<ssbft::TrialOutcome> outcomes;  // by unit (first_unit + trial)
  std::vector<UnitTraffic> traffic;
  double seconds = 0.0;
  double build_s = 0.0;

  std::uint64_t beats() const {
    std::uint64_t b = 0;
    for (const UnitTraffic& t : traffic) b += t.beats;
    return b;
  }
};

Round sweep_round(const Grid& g) {
  Round r;
  r.outcomes.resize(g.units);
  r.traffic.resize(g.units);
  std::atomic<std::uint64_t> build_ns{0};
  std::vector<ssbft::SweepCell> cells;
  for (const Cell& c : g.cells) {
    const std::uint64_t first = c.first_unit, base = c.cfg.base_seed;
    auto probe = [&r, first, base](ssbft::EngineBundle& b, std::uint64_t seed) {
      const std::uint64_t u = first + (seed - base);
      probe_bundle(b, [&r, u](const ssbft::Engine& e) { r.traffic[u] = traffic_of(e); });
    };
    cells.push_back(
        {c.spec->name, timed_builder(c.builder, &build_ns, probe), c.cfg});
  }
  ssbft::SweepOptions so;
  so.jobs = kMaxWorkers;
  const std::uint64_t t0 = now_ns();
  const ssbft::SweepResult res = ssbft::run_sweep_ex(cells, so);
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.build_s = static_cast<double>(build_ns.load()) / 1e9;
  for (const ssbft::SweepUnitResult& u : res.units) {
    r.outcomes[g.cells[u.cell].first_unit + u.trial] = u.outcome;
  }
  return r;
}

std::string unit_name(const Cell& c, std::uint64_t trial) {
  return c.spec->name + " trial " + std::to_string(trial);
}

// The per-unit correctness contract: queen and king sync within their
// deterministic bounds, ss-Byz-Clock-Sync converges within its budget,
// Dolev-Welch may legitimately hit its cap.
bool unit_ok(const Cell& c, const ssbft::TrialOutcome& o) {
  const std::uint64_t f1 = std::uint64_t{c.spec->world.f} + 1;
  switch (c.kind) {
    case kQueen:
      return o.converged && o.synced_at <= 2 + 2 * f1 + 4;
    case kKing:
      return o.converged && o.synced_at <= 2 + 3 * f1 + 4;
    case kSync:
    case kSyncFm:
      return o.converged;
    default:
      return true;
  }
}

bool same_outcome(const ssbft::TrialOutcome& a, const ssbft::TrialOutcome& b) {
  return a.converged == b.converged && (!a.converged || a.synced_at == b.synced_at);
}

bool same_traffic(const UnitTraffic& a, const UnitTraffic& b) {
  return a.beats == b.beats && a.messages == b.messages && a.bytes == b.bytes;
}

// Checks a round unit by unit: the contract above, plus bit-identity with
// the first round (every round replays the same seeds).
void check_round(const Grid& g, const Round& r, const Round& first,
                 Report& report) {
  for (const Cell& c : g.cells) {
    for (std::uint64_t t = 0; t < c.cfg.trials; ++t) {
      const std::uint64_t u = c.first_unit + t;
      report.check(unit_ok(c, r.outcomes[u]),
                   unit_name(c, t) + " missed its convergence contract");
      report.check(same_outcome(r.outcomes[u], first.outcomes[u]) &&
                       same_traffic(r.traffic[u], first.traffic[u]),
                   unit_name(c, t) + " did not replay bit-identically");
    }
  }
}

void untraced(const Options& opts, const Grid& g, Report& report) {
  std::vector<Round> rounds;
  repeat_rounds(opts.seconds, [&] {
    rounds.push_back(sweep_round(g));
    check_round(g, rounds.back(), rounds.front(), report);
    return rounds.back().seconds;
  });
  // The rate is wall-clock: a round's beats over the time of its whole
  // run_sweep_ex call, so the global queue, the tail left when one worker
  // still runs a capped unit, and idle workers all count. The median
  // round, as for fm-steady-n64: with three or four rounds per run the fast
  // decile is nearly the fastest round, which follows whether the
  // machine's slow stretches happened to lift during the run.
  std::vector<double> setups, rates;
  for (const Round& r : rounds) {
    setups.push_back(r.build_s);
    rates.push_back(static_cast<double>(r.beats()) / r.seconds);
  }
  const Round& r = rounds.front();
  std::uint64_t beats = 0, bytes = 0, msgs = 0, synced = 0, sync_sum = 0;
  for (const Cell& c : g.cells) {
    for (std::uint64_t t = 0; t < c.cfg.trials; ++t) {
      const std::uint64_t u = c.first_unit + t;
      beats += r.traffic[u].beats;
      bytes += r.traffic[u].bytes;
      msgs += r.traffic[u].messages;
      // The paper's convergence time: ss-Byz-Clock-Sync units only (the
      // baselines' sync beats are either fixed bounds or capped).
      if ((c.kind == kSync || c.kind == kSyncFm) && r.outcomes[u].converged) {
        ++synced;
        sync_sum += r.outcomes[u].synced_at;
      }
    }
  }
  report.set("setup_s", median(setups), "s");
  report.set("beats_per_s", median(rates), "1/s");
  set_traffic_metrics(report, beats, bytes, msgs,
                      synced == 0 ? 0.0 : static_cast<double>(sync_sum) / synced);
}

// Per-worker accumulators of the traced replay (cache-line aligned: the
// two workers bump them every beat).
struct alignas(64) TracedAcc {
  std::uint64_t build_ns = 0;
  BeatLoopTimes kinds[kKindCount];
  std::uint64_t net_events = 0;
};

void traced(const Options& opts, const Grid& g, Report& report) {
  const Round ref = sweep_round(g);
  check_round(g, ref, ref, report);
  const double untraced_rate = static_cast<double>(ref.beats()) / ref.seconds;

  std::vector<const Cell*> unit_cell(g.units);
  for (const Cell& c : g.cells) {
    for (std::uint64_t t = 0; t < c.cfg.trials; ++t) unit_cell[c.first_unit + t] = &c;
  }
  TracedAcc total;
  std::vector<double> build_ms, rates;
  repeat_rounds(opts.seconds, [&] {
    TracedAcc acc[kMaxWorkers];
    std::vector<char> reproduced(g.units, 0);
    const std::uint64_t t0 = now_ns();
    parallel_for(g.units, kMaxWorkers, [&](std::uint64_t u, unsigned w) {
      const Cell& c = *unit_cell[u];
      const std::uint64_t trial = u - c.first_unit;
      ssbft::EngineBundle bundle;
      {
        ScopedTimer t(acc[w].build_ns);
        bundle = c.builder(c.cfg.base_seed + trial);
      }
      const ssbft::ConvergenceResult res =
          converge_timed(*bundle.engine, c.cfg.convergence, acc[w].kinds[c.kind]);
      ssbft::TrialOutcome o;
      o.converged = res.converged;
      o.synced_at = res.synced_at;
      const UnitTraffic traffic = traffic_of(*bundle.engine);
      acc[w].net_events += traffic.net_events;
      reproduced[u] = same_outcome(o, ref.outcomes[u]) &&
                      same_traffic(traffic, ref.traffic[u]);
    });
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    std::uint64_t round_build = 0, round_beats = 0;
    for (const TracedAcc& a : acc) {
      round_build += a.build_ns;
      total.net_events += a.net_events;
      for (int k = 0; k < kKindCount; ++k) {
        total.kinds[k].beat_ns += a.kinds[k].beat_ns;
        total.kinds[k].detector_ns += a.kinds[k].detector_ns;
        total.kinds[k].beats += a.kinds[k].beats;
        round_beats += a.kinds[k].beats;
      }
    }
    for (std::uint64_t u = 0; u < g.units; ++u) {
      report.check(reproduced[u] != 0,
                   unit_name(*unit_cell[u], u - unit_cell[u]->first_unit) +
                       ": traced replay differs from the untraced sweep");
    }
    build_ms.push_back(static_cast<double>(round_build) / 1e6);
    rates.push_back(static_cast<double>(round_beats) / secs);
    return secs;
  });

  std::uint64_t beat_ns = 0, detector_ns = 0, beats = 0;
  for (int k = 0; k < kKindCount; ++k) {
    const BeatLoopTimes& t = total.kinds[k];
    beat_ns += t.beat_ns;
    detector_ns += t.detector_ns;
    beats += t.beats;
    report.set(std::string("sim.beat_us.") + kKindNames[k],
               t.beats == 0 ? 0.0 : static_cast<double>(t.beat_ns) / 1e3 / t.beats,
               "us");
  }
  report.set("harness.build_ms", median(build_ms), "ms");
  report.set("sim.beat_us", static_cast<double>(beat_ns) / 1e3 / beats, "us");
  report.set("harness.detector_us_per_beat",
             static_cast<double>(detector_ns) / 1e3 / beats, "us");
  report.set("sim.net_events_per_beat",
             static_cast<double>(total.net_events) / beats, "count");
  report.set("tracing_overhead_pct", overhead_pct(median(rates), untraced_rate),
             "%");
}

}  // namespace

void run_table1_sweep(const Options& opts, Report& report) {
  const Grid g = make_grid(opts);
  if (opts.trace) {
    traced(opts, g, report);
  } else {
    untraced(opts, g, report);
  }
}

}  // namespace perfbench
