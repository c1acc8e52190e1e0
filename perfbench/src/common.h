// Shared pieces of the perfbench program: options, the per-run report, the
// timing helpers every workload uses, and the timing proxies placed in
// front of the library's own interfaces (TraceSink, ClockProtocol,
// Adversary, EngineBuilder). All timing is taken here, around public
// calls; the library itself carries no timing code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/convergence.h"
#include "harness/runner.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/protocol.h"
#include "sim/trace.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Adds the wall time of its scope to `acc` (nanoseconds).
class ScopedTimer {
 public:
  explicit ScopedTimer(std::uint64_t& acc) : acc_(acc), t0_(now_ns()) {}
  ~ScopedTimer() { acc_ += now_ns() - t0_; }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::uint64_t& acc_;
  std::uint64_t t0_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Self-test fault injection: "" (none), "clock", "commitment", "coin"
  // or "kernel". Corrupts one observed value right before its check, so the
  // self-tests can prove each check counts a failed operation.
  std::string inject;
};

// Worker threads a workload may use (sweeps and traced replays alike).
constexpr std::uint64_t kMaxWorkers = 2;

// Unit seeds of a registry cell under benchmark seed S: the cell's own
// base seed shifted by S * 10^6, so S = 0 replays the registry exactly and
// distinct S never share a unit seed with each other.
inline std::uint64_t seed_offset(std::uint64_t seed) {
  return seed * 1'000'000ull;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Operations attempted/failed plus the metrics one process reports.
class Report {
 public:
  // Counts one operation; a false `ok` counts it failed and keeps `what`
  // (the first few failures are printed to stderr).
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  // Drops every metric (a traced run that did not reproduce the untraced
  // run reports none).
  void clear_metrics() { metrics_.clear(); }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// The per-layer metrics a traced run emits, with their units, in report
// order. Every traced run emits all of them; a layer a workload does not
// exercise reads 0 there (README.md lists which workload feeds which).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

double median(std::vector<double> v);

// The rate soak-net and audit-trace report: the 90th percentile (linear
// interpolation) of the rates of many short, fixed work samples. On a
// shared machine, neighbour load only ever slows a sample, so for these
// two the fast decile follows the program's own speed. table1-sweep and
// fm-steady-n64 report their median round instead, whose slow stretches
// outlast a run (README.md has the measured spreads).
double fast_decile(std::vector<double> rates);

// Runs `round` (which returns its own measured seconds) until the summed
// measured time reaches `seconds`, at least once.
void repeat_rounds(double seconds, const std::function<double()>& round);

// Runs fn(index) for index in [0, count) on `workers` threads pulling from
// one shared counter; fn's exceptions are rethrown after every thread has
// joined.
void parallel_for(std::uint64_t count, std::uint64_t workers,
                  const std::function<void(std::uint64_t, unsigned)>& fn);

// Sets the deterministic end-to-end metrics: kib_per_beat and
// msgs_per_beat from correct-node traffic, and sync_beats_mean.
void set_traffic_metrics(Report& report, std::uint64_t beats,
                         std::uint64_t bytes, std::uint64_t messages,
                         double sync_beats_mean);

// Percentage change of a traced rate against the untraced one:
// 100 * (traced - untraced) / untraced (negative = tracing slows it).
inline double overhead_pct(double traced_rate, double untraced_rate) {
  return untraced_rate > 0.0
             ? 100.0 * (traced_rate - untraced_rate) / untraced_rate
             : 0.0;
}

// ---------------------------------------------------------------------------
// Timing proxies.

// EngineBuilder wrapper: adds the inner builder's wall time to `build_ns`
// and then lets `after` decorate the bundle (attach a sink, wrap the
// keepalive) outside the timed span.
ssbft::EngineBuilder timed_builder(
    ssbft::EngineBuilder inner, std::atomic<std::uint64_t>* build_ns,
    std::function<void(ssbft::EngineBundle&, std::uint64_t seed)> after = {});

// Keepalive decorator. The sweep drops a unit's bundle when the unit is
// done; EngineBundle destroys its keepalive before its engine, so `on_done`
// runs while the engine is still intact — the hook that reads each unit's
// traffic totals (and finishes its trace) from outside the sweep.
class UnitProbe {
 public:
  UnitProbe(std::shared_ptr<void> inner, const ssbft::Engine* engine,
            std::function<void(const ssbft::Engine&)> on_done)
      : inner_(std::move(inner)), engine_(engine),
        on_done_(std::move(on_done)) {}
  ~UnitProbe();
  UnitProbe(const UnitProbe&) = delete;
  UnitProbe& operator=(const UnitProbe&) = delete;

 private:
  std::shared_ptr<void> inner_;
  const ssbft::Engine* engine_;
  std::function<void(const ssbft::Engine&)> on_done_;
};

// Exceptions raised by UnitProbe hooks (which cannot propagate out of a
// destructor), for main() to count as failed operations.
std::vector<std::string> hook_errors();

// Installs a UnitProbe on a freshly built bundle.
void probe_bundle(ssbft::EngineBundle& bundle,
                  std::function<void(const ssbft::Engine&)> on_done);

// Correct-node traffic of one finished unit, read from its Metrics.
struct UnitTraffic {
  std::uint64_t beats = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t net_events = 0;  // dropped + phantom + eclipsed + delayed + reordered
};
UnitTraffic traffic_of(const ssbft::Engine& engine);

// TraceSink proxy: times every call into the wrapped sink and counts the
// records that reach it.
class TimingSink final : public ssbft::TraceSink {
 public:
  explicit TimingSink(ssbft::TraceSink* inner) : inner_(inner) {}
  void begin_trace(const ssbft::TraceMeta& meta) override {
    inner_->begin_trace(meta);
  }
  void write(const ssbft::TraceRecord* records, std::size_t count) override {
    ScopedTimer t(ns);
    records_seen += count;
    inner_->write(records, count);
  }
  void end_beat(ssbft::Beat beat) override {
    ScopedTimer t(ns);
    inner_->end_beat(beat);
  }

  std::uint64_t ns = 0;
  std::uint64_t records_seen = 0;

 private:
  ssbft::TraceSink* inner_;
};

// Time spent inside the protocol stack and the adversary, summed over
// every node of one engine.
struct StackTimes {
  std::uint64_t send_ns = 0;
  std::uint64_t receive_ns = 0;
  std::uint64_t act_ns = 0;
};

// ClockProtocol proxy: forwards everything to the wrapped node and times
// its send and receive phases.
class TimingClock final : public ssbft::ClockProtocol {
 public:
  TimingClock(std::unique_ptr<ssbft::ClockProtocol> inner, StackTimes* times)
      : inner_(std::move(inner)), times_(times) {}
  void send_phase(ssbft::Outbox& out) override {
    ScopedTimer t(times_->send_ns);
    inner_->send_phase(out);
  }
  void receive_phase(const ssbft::Inbox& in) override {
    ScopedTimer t(times_->receive_ns);
    inner_->receive_phase(in);
  }
  void randomize_state(ssbft::Rng& rng) override {
    inner_->randomize_state(rng);
  }
  std::uint32_t channel_count() const override {
    return inner_->channel_count();
  }
  void trace_state(ssbft::TraceEmitter& em) const override {
    inner_->trace_state(em);
  }
  ssbft::ClockValue clock() const override { return inner_->clock(); }
  ssbft::ClockValue modulus() const override { return inner_->modulus(); }

 private:
  std::unique_ptr<ssbft::ClockProtocol> inner_;
  StackTimes* times_;
};

// Adversary proxy: times act().
class TimingAdversary final : public ssbft::Adversary {
 public:
  TimingAdversary(std::unique_ptr<ssbft::Adversary> inner, StackTimes* times)
      : inner_(std::move(inner)), times_(times) {}
  void act(ssbft::AdversaryContext& ctx) override {
    ScopedTimer t(times_->act_ns);
    inner_->act(ctx);
  }

 private:
  std::unique_ptr<ssbft::Adversary> inner_;
  StackTimes* times_;
};

// ---------------------------------------------------------------------------
// The convergence detector, mirrored beat by beat from outside.

struct BeatLoopTimes {
  std::uint64_t beat_ns = 0;      // inside Engine::run_beat
  std::uint64_t detector_ns = 0;  // inside clocks_agree / correct_clocks
  std::uint64_t beats = 0;
};

// measure_convergence (harness/convergence.cpp) re-expressed as a loop of
// public calls, so run_beat and the detector are timed separately. Returns
// the same ConvergenceResult for the same engine.
ssbft::ConvergenceResult converge_timed(ssbft::Engine& engine,
                                        const ssbft::ConvergenceConfig& cfg,
                                        BeatLoopTimes& times);

}  // namespace perfbench
