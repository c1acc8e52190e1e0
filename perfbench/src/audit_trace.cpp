// audit-trace: a traced sweep of the net/* and gallery/* cells at a raised
// trial count. Every unit's trace is written as JSONL into memory (no disk
// write-back in the timed path) and then runs parse -> merge -> check ->
// commitment, the replay-exactness path every optimisation relies on. It
// feeds the same InvariantCore as soak-net, but through serialization,
// parsing and SHA-256 commitments.
//
// Checks: every trace decodes and passes the offline invariants (the
// coin-agreement floor is applied per cell, see audit_options), its offline
// synced_at equals the sweep's measure_convergence outcome, every round
// reproduces the first round's commitments, and the net/baseline trial-0
// unit at its registry seed (independent of the benchmark seed) commits to
// GOLDEN_TRACE_COMMITMENT.txt.
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/checker.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "support/check.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kNetTrials = 60;
constexpr std::uint64_t kGalleryTrials = 120;
const char* const kGoldenFile = "GOLDEN_TRACE_COMMITMENT.txt";

struct Cell {
  std::string name;
  const ssbft::ScenarioSpec* spec;
  ssbft::EngineBuilder builder;
  ssbft::RunnerConfig cfg;
  std::uint64_t first_unit;
};

struct Grid {
  std::vector<Cell> cells;
  std::uint64_t units = 0;
  std::uint64_t golden_unit = 0;
  std::string golden;  // expected aggregate commitment
};

Grid make_grid(const Options& opts) {
  Grid g;
  auto add = [&g](const ssbft::ScenarioSpec* spec, std::uint64_t trials,
                  std::uint64_t base_seed) {
    Cell c{spec->name, spec, ssbft::build_scenario(*spec),
           ssbft::scenario_runner_config(*spec), g.units};
    c.cfg.trials = trials;
    c.cfg.base_seed = base_seed;
    g.units += trials;
    g.cells.push_back(std::move(c));
  };
  for (const auto* spec : ssbft::match_scenarios("net/*")) {
    add(spec, kNetTrials, spec->base_seed + seed_offset(opts.seed));
  }
  for (const auto* spec : ssbft::match_scenarios("gallery/*")) {
    add(spec, kGalleryTrials, spec->base_seed + seed_offset(opts.seed));
  }
  // The pinned cell: `ssbft_bench run net/baseline --trials 1 --trace`.
  const ssbft::ScenarioSpec* baseline = ssbft::find_scenario("net/baseline");
  SSBFT_REQUIRE(baseline != nullptr);
  g.golden_unit = g.units;
  add(baseline, 1, baseline->base_seed);

  std::ifstream in(kGoldenFile);
  SSBFT_REQUIRE_MSG(in && (in >> g.golden),
                    "cannot read " << kGoldenFile
                                   << " (run from the repository root)");
  return g;
}

ssbft::TraceMeta meta_of(const Cell& c, std::uint64_t trial,
                         const ssbft::Engine& e) {
  ssbft::TraceMeta meta;
  meta.scenario = c.name;
  meta.trial = trial;
  meta.seed = c.cfg.base_seed + trial;
  meta.n = e.n();
  meta.f = e.f();
  for (ssbft::NodeId id = 0; id < e.n(); ++id) {
    if (e.is_faulty(id)) meta.faulty.push_back(id);
  }
  meta.max_beats = c.cfg.convergence.max_beats;
  meta.confirm_window = c.cfg.convergence.confirm_window;
  return meta;
}

struct StageTimes {
  std::uint64_t parse_ns = 0, merge_ns = 0, check_ns = 0, commit_ns = 0;
};

struct UnitResult {
  std::string error;  // parse/merge failure, empty when the trace decoded
  bool check_ok = false;
  std::uint64_t coin_groups = 0;
  double coin_agreed = 0.0;  // groups that agreed: rate x groups
  bool converged = false;
  ssbft::Beat synced_at = 0;
  std::string commitment;
  UnitTraffic traffic;
};

// The per-trace check without its coin-agreement floor. These traces end a
// confirmation window (12 beats) after sync, so they hold only 11-22 coin
// groups, and about one unit in a thousand of net/* or gallery/* falls
// under the default 0.5 rate on some seeds and not on others (README.md,
// "Known gaps"). The floor is applied instead to each cell's pooled rate,
// over 60 or 120 traces, where a working coin sits near 0.9 on every seed
// and a broken one fails. Convergence, closure and decoding stay per trace.
ssbft::CheckOptions audit_options() {
  ssbft::CheckOptions opts;
  opts.coin_agreement = 0.0;
  return opts;
}

// parse -> merge -> check -> commit over one unit's JSONL text.
void audit_text(const std::string& text, UnitResult& out, StageTimes& t) {
  std::istringstream in(text);
  ssbft::ParseResult parsed;
  {
    ScopedTimer s(t.parse_ns);
    parsed = ssbft::parse_trace(in);
  }
  if (!parsed.ok) {
    out.error = "line " + std::to_string(parsed.error_line) + ": " + parsed.error;
    return;
  }
  std::vector<ssbft::ParsedTrace> parts;
  parts.push_back(std::move(parsed.trace));
  ssbft::MergeResult merged;
  {
    ScopedTimer s(t.merge_ns);
    merged = ssbft::merge_traces(std::move(parts));
  }
  if (!merged.ok || merged.traces.size() != 1) {
    out.error = "merge: " + merged.error;
    return;
  }
  {
    ScopedTimer s(t.check_ns);
    const ssbft::CheckResult r =
        ssbft::check_trace(merged.traces[0], audit_options());
    out.check_ok = r.ok;
    out.coin_groups = r.coin_groups;
    out.coin_agreed = r.coin_agreement_rate * static_cast<double>(r.coin_groups);
    out.converged = r.converged;
    out.synced_at = r.synced_at;
  }
  ScopedTimer s(t.commit_ns);
  out.commitment = ssbft::trace_commitment(merged.traces[0]);
}

// One unit's in-memory trace: the JSONL sink and the text it fills.
struct TraceJob {
  std::ostringstream text;
  ssbft::JsonlTraceSink sink{text};
};

struct Round {
  std::vector<UnitResult> units;
  std::vector<ssbft::TrialOutcome> outcomes;
  double seconds = 0.0;
  double build_s = 0.0;

  std::uint64_t beats() const {
    std::uint64_t b = 0;
    for (const UnitResult& u : units) b += u.traffic.beats;
    return b;
  }
};

Round sweep_round(const Grid& g) {
  Round r;
  r.units.resize(g.units);
  r.outcomes.resize(g.units);
  std::atomic<std::uint64_t> build_ns{0};
  std::vector<ssbft::SweepCell> cells;
  for (const Cell& c : g.cells) {
    UnitResult* slots = r.units.data() + c.first_unit;
    auto attach = [&c, slots](ssbft::EngineBundle& b, std::uint64_t seed) {
      const std::uint64_t trial = seed - c.cfg.base_seed;
      auto job = std::make_shared<TraceJob>();
      job->sink.begin_trace(meta_of(c, trial, *b.engine));
      b.engine->set_trace(&job->sink);
      UnitResult* out = slots + trial;
      probe_bundle(b, [job, out](const ssbft::Engine& e) {
        out->traffic = traffic_of(e);
        StageTimes unused;
        audit_text(job->text.str(), *out, unused);
      });
    };
    cells.push_back({c.name, timed_builder(c.builder, &build_ns, attach), c.cfg});
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

const Cell& cell_of(const Grid& g, std::uint64_t u) {
  for (const Cell& c : g.cells) {
    if (u < c.first_unit + c.cfg.trials) return c;
  }
  SSBFT_REQUIRE_MSG(false, "unit " << u << " out of range");
  return g.cells.back();
}

std::string unit_name(const Grid& g, std::uint64_t u) {
  const Cell& c = cell_of(g, u);
  return c.name + " trial " + std::to_string(u - c.first_unit);
}

// Per cell name (the golden unit joins net/baseline): agreed coin groups
// and all coin groups, summed over the cell's traces.
std::map<std::string, std::pair<double, double>> coin_pools(const Grid& g,
                                                            const Round& r) {
  std::map<std::string, std::pair<double, double>> pools;
  for (std::uint64_t u = 0; u < g.units; ++u) {
    auto& pool = pools[cell_of(g, u).name];
    pool.first += r.units[u].coin_agreed;
    pool.second += static_cast<double>(r.units[u].coin_groups);
  }
  return pools;
}

// Traces whose own coin-agreement rate is under the default floor.
std::uint64_t low_coin_units(const Round& r) {
  const double floor = ssbft::CheckOptions{}.coin_agreement;
  std::uint64_t n = 0;
  for (const UnitResult& x : r.units) {
    if (x.coin_groups > 0 &&
        x.coin_agreed < floor * static_cast<double>(x.coin_groups)) {
      ++n;
    }
  }
  return n;
}

void check_round(const Options& opts, const Grid& g, const Round& r,
                 const Round& first, Report& report) {
  for (std::uint64_t u = 0; u < g.units; ++u) {
    const UnitResult& x = r.units[u];
    const ssbft::TrialOutcome& o = r.outcomes[u];
    report.check(x.error.empty() && x.check_ok,
                 unit_name(g, u) + ": trace did not check clean " + x.error);
    report.check(x.converged == o.converged &&
                     (!o.converged || x.synced_at == o.synced_at),
                 unit_name(g, u) + ": offline synced_at " +
                     std::to_string(x.synced_at) + " differs from the sweep's " +
                     std::to_string(o.synced_at));
    report.check(x.commitment == first.units[u].commitment,
                 unit_name(g, u) + ": commitment did not replay");
  }
  const double floor = ssbft::CheckOptions{}.coin_agreement;
  for (const auto& [name, pool] : coin_pools(g, r)) {
    const double agreed = opts.inject == "coin" ? 0.0 : pool.first;
    // A cell with no coin groups at all means the coin stopped recording.
    const double rate = pool.second == 0 ? 0.0 : agreed / pool.second;
    report.check(rate >= floor, name + ": pooled coin-agreement rate " +
                                    std::to_string(rate) + " under " +
                                    std::to_string(floor));
  }
  std::string golden =
      ssbft::aggregate_commitment({r.units[g.golden_unit].commitment});
  if (opts.inject == "commitment") golden[0] = golden[0] == '0' ? '1' : '0';
  report.check(golden == g.golden,
               "net/baseline trial 0 commitment " + golden + " differs from " +
                   kGoldenFile);
}

void untraced(const Options& opts, const Grid& g, Report& report) {
  std::vector<Round> rounds;
  repeat_rounds(opts.seconds, [&] {
    rounds.push_back(sweep_round(g));
    check_round(opts, g, rounds.back(), rounds.front(), report);
    return rounds.back().seconds;
  });
  std::vector<double> rates, setups;
  for (const Round& r : rounds) {
    rates.push_back(static_cast<double>(r.beats()) / r.seconds);
    setups.push_back(r.build_s);
  }
  const Round& r = rounds.front();
  std::uint64_t beats = 0, bytes = 0, msgs = 0, synced = 0, sync_sum = 0;
  for (std::uint64_t u = 0; u < g.units; ++u) {
    beats += r.units[u].traffic.beats;
    bytes += r.units[u].traffic.bytes;
    msgs += r.units[u].traffic.messages;
    if (r.outcomes[u].converged) {
      ++synced;
      sync_sum += r.outcomes[u].synced_at;
    }
  }
  report.set("setup_s", median(setups), "s");
  report.set("beats_per_s", fast_decile(rates), "1/s");
  set_traffic_metrics(report, beats, bytes, msgs,
                      synced == 0 ? 0.0 : static_cast<double>(sync_sum) / synced);
}

struct alignas(64) TracedAcc {
  std::uint64_t build_ns = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t net_events = 0;
  BeatLoopTimes loop;
  StageTimes stages;
};

void traced(const Options& opts, const Grid& g, Report& report) {
  const Round ref = sweep_round(g);
  check_round(opts, g, ref, ref, report);
  const double untraced_rate = static_cast<double>(ref.beats()) / ref.seconds;

  std::vector<const Cell*> unit_cell(g.units);
  for (std::uint64_t u = 0; u < g.units; ++u) unit_cell[u] = &cell_of(g, u);
  TracedAcc total;
  std::vector<double> rates, build_ms, write_ms, parse_ms, merge_ms, check_ms,
      commit_ms;
  repeat_rounds(opts.seconds, [&] {
    TracedAcc acc[kMaxWorkers];
    Round round;
    round.units.resize(g.units);
    round.outcomes.resize(g.units);
    const std::uint64_t t0 = now_ns();
    parallel_for(g.units, kMaxWorkers, [&](std::uint64_t u, unsigned w) {
      const Cell& c = *unit_cell[u];
      const std::uint64_t trial = u - c.first_unit;
      ssbft::EngineBundle bundle;
      {
        ScopedTimer t(acc[w].build_ns);
        bundle = c.builder(c.cfg.base_seed + trial);
      }
      TraceJob job;
      TimingSink sink(&job.sink);
      sink.begin_trace(meta_of(c, trial, *bundle.engine));
      bundle.engine->set_trace(&sink);
      const ssbft::ConvergenceResult res =
          converge_timed(*bundle.engine, c.cfg.convergence, acc[w].loop);
      round.outcomes[u].converged = res.converged;
      round.outcomes[u].synced_at = res.synced_at;
      round.units[u].traffic = traffic_of(*bundle.engine);
      acc[w].write_ns += sink.ns;
      acc[w].records += sink.records_seen;
      acc[w].net_events += round.units[u].traffic.net_events;
      audit_text(job.text.str(), round.units[u], acc[w].stages);
    });
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    check_round(opts, g, round, ref, report);
    for (std::uint64_t u = 0; u < g.units; ++u) {
      report.check(round.outcomes[u].converged == ref.outcomes[u].converged &&
                       round.outcomes[u].synced_at == ref.outcomes[u].synced_at,
                   unit_name(g, u) + ": traced replay differs from the sweep");
    }
    TracedAcc r;
    for (const TracedAcc& a : acc) {
      r.build_ns += a.build_ns;
      r.write_ns += a.write_ns;
      r.records += a.records;
      r.net_events += a.net_events;
      r.loop.beat_ns += a.loop.beat_ns;
      r.loop.detector_ns += a.loop.detector_ns;
      r.loop.beats += a.loop.beats;
      r.stages.parse_ns += a.stages.parse_ns;
      r.stages.merge_ns += a.stages.merge_ns;
      r.stages.check_ns += a.stages.check_ns;
      r.stages.commit_ns += a.stages.commit_ns;
    }
    total.write_ns += r.write_ns;
    total.records += r.records;
    total.net_events += r.net_events;
    total.loop.beat_ns += r.loop.beat_ns;
    total.loop.detector_ns += r.loop.detector_ns;
    total.loop.beats += r.loop.beats;
    rates.push_back(static_cast<double>(r.loop.beats) / secs);
    build_ms.push_back(static_cast<double>(r.build_ns) / 1e6);
    write_ms.push_back(static_cast<double>(r.write_ns) / 1e6);
    parse_ms.push_back(static_cast<double>(r.stages.parse_ns) / 1e6);
    merge_ms.push_back(static_cast<double>(r.stages.merge_ns) / 1e6);
    check_ms.push_back(static_cast<double>(r.stages.check_ns) / 1e6);
    commit_ms.push_back(static_cast<double>(r.stages.commit_ns) / 1e6);
    return secs;
  });
  const double beats = static_cast<double>(total.loop.beats);
  report.set("harness.build_ms", median(build_ms), "ms");
  report.set("sim.beat_us",
             static_cast<double>(total.loop.beat_ns - total.write_ns) / 1e3 / beats,
             "us");
  report.set("harness.detector_us_per_beat",
             static_cast<double>(total.loop.detector_ns) / 1e3 / beats, "us");
  report.set("sim.trace_records_per_beat",
             static_cast<double>(total.records) / beats, "count");
  report.set("sim.net_events_per_beat",
             static_cast<double>(total.net_events) / beats, "count");
  report.set("trace.write_ms", median(write_ms), "ms");
  report.set("checker.parse_ms", median(parse_ms), "ms");
  report.set("checker.merge_ms", median(merge_ms), "ms");
  report.set("checker.check_ms", median(check_ms), "ms");
  report.set("checker.commit_ms", median(commit_ms), "ms");
  report.set("checker.low_coin_units", static_cast<double>(low_coin_units(ref)),
             "count");
  report.set("tracing_overhead_pct", overhead_pct(median(rates), untraced_rate),
             "%");
}

}  // namespace

void run_audit_trace(const Options& opts, Report& report) {
  const Grid g = make_grid(opts);
  if (opts.trace) {
    traced(opts, g, report);
  } else {
    untraced(opts, g, report);
  }
}

}  // namespace perfbench
