#include "common.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "support/check.h"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"harness.build_ms", "ms"},
      {"chaos.sample_us_per_unit", "us"},
      {"sim.beat_us", "us"},
      {"sim.beat_us.dw", "us"},
      {"sim.beat_us.queen", "us"},
      {"sim.beat_us.king", "us"},
      {"sim.beat_us.sync", "us"},
      {"sim.beat_us.sync-fm", "us"},
      {"harness.detector_us_per_beat", "us"},
      {"harness.live_check_us_per_beat", "us"},
      {"sim.trace_records_per_beat", "count"},
      {"sim.net_events_per_beat", "count"},
      {"core.send_ms_per_beat", "ms"},
      {"core.receive_ms_per_beat", "ms"},
      {"adversary.act_ms_per_beat", "ms"},
      {"sim.plumbing_ms_per_beat", "ms"},
      {"coin.deal_kib_per_beat", "KiB/beat"},
      {"coin.cross_kib_per_beat", "KiB/beat"},
      {"coin.vote_kib_per_beat", "KiB/beat"},
      {"coin.share_kib_per_beat", "KiB/beat"},
      {"core.clock_kib_per_beat", "KiB/beat"},
      {"field.eval_many_us", "us"},
      {"field.dot_us", "us"},
      {"field.addmul_vec_us", "us"},
      {"field.batch_inv_us", "us"},
      {"codec.encode_us", "us"},
      {"codec.decode_us", "us"},
      {"trace.write_ms", "ms"},
      {"checker.parse_ms", "ms"},
      {"checker.merge_ms", "ms"},
      {"checker.check_ms", "ms"},
      {"checker.commit_ms", "ms"},
      {"checker.low_coin_units", "count"},
      {"tracing_overhead_pct", "%"},
  };
  return kMetrics;
}

void set_traffic_metrics(Report& report, std::uint64_t beats,
                         std::uint64_t bytes, std::uint64_t messages,
                         double sync_beats_mean) {
  report.set("kib_per_beat", static_cast<double>(bytes) / 1024.0 / beats,
             "KiB/beat");
  report.set("msgs_per_beat", static_cast<double>(messages) / beats,
             "msgs/beat");
  report.set("sync_beats_mean", sync_beats_mean, "beats");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double fast_decile(std::vector<double> rates) {
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  const double idx = 0.9 * static_cast<double>(rates.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, rates.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return rates[lo] * (1.0 - frac) + rates[hi] * frac;
}

void repeat_rounds(double seconds, const std::function<double()>& round) {
  double total = 0.0;
  do {
    total += round();
  } while (total < seconds);
}

void parallel_for(std::uint64_t count, std::uint64_t workers,
                  const std::function<void(std::uint64_t, unsigned)>& fn) {
  std::atomic<std::uint64_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  auto body = [&](unsigned worker) {
    try {
      for (std::uint64_t i = next++; i < count; i = next++) fn(i, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      next = count;
    }
  };
  const auto n = static_cast<unsigned>(std::max<std::uint64_t>(
      1, std::min(workers, std::max<std::uint64_t>(count, 1))));
  std::vector<std::thread> threads;
  for (unsigned w = 1; w < n; ++w) threads.emplace_back(body, w);
  body(0);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

ssbft::EngineBuilder timed_builder(
    ssbft::EngineBuilder inner, std::atomic<std::uint64_t>* build_ns,
    std::function<void(ssbft::EngineBundle&, std::uint64_t)> after) {
  return [inner = std::move(inner), build_ns,
          after = std::move(after)](std::uint64_t seed) {
    const std::uint64_t t0 = now_ns();
    ssbft::EngineBundle bundle = inner(seed);
    *build_ns += now_ns() - t0;
    if (after) after(bundle, seed);
    return bundle;
  };
}

namespace {
std::mutex hook_error_mu;
std::vector<std::string> hook_error_list;  // guarded by hook_error_mu
}  // namespace

std::vector<std::string> hook_errors() {
  std::lock_guard<std::mutex> lock(hook_error_mu);
  return hook_error_list;
}

UnitProbe::~UnitProbe() {
  // Runs on a sweep worker while the unit's engine is still alive. An
  // exception must not escape a destructor, so it is recorded and main()
  // counts it as a failed operation.
  try {
    on_done_(*engine_);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(hook_error_mu);
    hook_error_list.push_back(e.what());
  } catch (...) {
    std::lock_guard<std::mutex> lock(hook_error_mu);
    hook_error_list.push_back("unknown exception");
  }
}

void probe_bundle(ssbft::EngineBundle& bundle,
                  std::function<void(const ssbft::Engine&)> on_done) {
  bundle.keepalive = std::make_shared<UnitProbe>(
      std::move(bundle.keepalive), bundle.engine.get(), std::move(on_done));
}

UnitTraffic traffic_of(const ssbft::Engine& engine) {
  const ssbft::BeatTraffic& t = engine.metrics().total();
  UnitTraffic u;
  u.beats = engine.metrics().beats_recorded();
  u.messages = t.correct_messages;
  u.bytes = t.correct_bytes;
  u.net_events = t.dropped_messages + t.phantom_messages +
                 t.eclipsed_messages + t.delayed_messages +
                 t.reordered_messages;
  return u;
}

ssbft::ConvergenceResult converge_timed(ssbft::Engine& engine,
                                        const ssbft::ConvergenceConfig& cfg,
                                        BeatLoopTimes& times) {
  using ssbft::ClockValue;
  SSBFT_REQUIRE(!engine.correct_ids().empty());
  SSBFT_REQUIRE(cfg.confirm_window >= 1);
  const auto* first = dynamic_cast<const ssbft::ClockProtocol*>(
      &engine.node(engine.correct_ids()[0]));
  SSBFT_REQUIRE_MSG(first != nullptr, "engine does not host ClockProtocols");
  const ClockValue k = first->modulus();

  ssbft::ConvergenceResult res;
  std::optional<ClockValue> prev_common;
  ssbft::Beat streak_start = 0;
  std::uint64_t streak = 0;
  for (std::uint64_t i = 0; i < cfg.max_beats; ++i) {
    {
      ScopedTimer t(times.beat_ns);
      engine.run_beat();
    }
    ++times.beats;
    ++res.beats_run;
    const ssbft::Beat b = engine.beat() - 1;
    std::optional<ClockValue> common;
    {
      ScopedTimer t(times.detector_ns);
      if (ssbft::clocks_agree(engine)) {
        common = engine.correct_clocks().front();
      }
    }
    const bool continues = common.has_value() &&
                           (!prev_common.has_value() ||
                            (streak > 0 && *common == (*prev_common + 1) % k));
    if (common.has_value() && (streak == 0 || continues)) {
      if (streak == 0) streak_start = b;
      ++streak;
    } else if (common.has_value()) {
      streak_start = b;
      streak = 1;
    } else {
      streak = 0;
    }
    prev_common = common;
    if (streak >= cfg.confirm_window) {
      res.converged = true;
      res.synced_at = streak_start;
      return res;
    }
  }
  return res;
}

}  // namespace perfbench
