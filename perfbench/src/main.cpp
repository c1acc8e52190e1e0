// perfbench: runs one benchmark workload and prints its result as the
// last line of stdout (see README.md for the workloads and metrics).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--rev <git rev>] [--inject clock|commitment|coin|kernel]
//
// Exit status: 0 when every operation passed its check, 1 when some
// failed (the result line says how many), 2 on a usage or setup error
// (no result line).
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "field/fp_simd.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

const std::map<std::string, void (*)(const Options&, Report&)>& workloads() {
  static const std::map<std::string, void (*)(const Options&, Report&)> kAll = {
      {"table1-sweep", perfbench::run_table1_sweep},
      {"soak-net", perfbench::run_soak_net},
      {"fm-steady-n64", perfbench::run_fm_steady},
      {"audit-trace", perfbench::run_audit_trace},
  };
  return kAll;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// Machine and build identity, so figures from different machines or
// builds are never compared silently.
std::string fingerprint(const std::string& rev) {
#ifdef SSBFT_SIMD_DISABLED
  const std::string simd = "scalar (SSBFT_SIMD=off build)";
#else
  const std::string simd = ssbft::m61simd::backend_name();
#endif
  std::ostringstream os;
  os << "{\"cpu\": " << json_string(cpu_model()) << ", \"nproc\": " << online_cpus()
     << ", \"simd\": " << json_string(simd)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"git_rev\": " << json_string(rev) << "}";
  return os.str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <table1-sweep|soak-net|fm-steady-n64|"
               "audit-trace> --seed N --seconds S --trace 0|1 [--rev R] "
               "[--inject clock|commitment|coin|kernel]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--rev") {
        rev = value;
      } else if (arg == "--inject") {
        if (value != "clock" && value != "commitment" && value != "coin" &&
            value != "kernel") {
          usage("unknown --inject fault " + value);
        }
        opts.inject = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  const auto it = workloads().find(opts.workload);
  if (it == workloads().end()) usage("unknown workload '" + opts.workload + "'");
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

  std::cout << "fingerprint: " << fingerprint(rev) << std::endl;

  Report report;
  if (opts.trace) {
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      report.set(name, 0.0, unit);
    }
  }
  try {
    it->second(opts, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what() << "\n";
    return 2;
  }
  for (const std::string& e : perfbench::hook_errors()) {
    report.check(false, "unit hook failed: " + e);
  }
  if (!opts.trace) report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  for (const perfbench::Metric& m : report.metrics()) {
    report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  for (const std::string& f : report.failures()) {
    std::cerr << "perfbench: FAILED " << f << "\n";
  }
  // A traced run that did not reproduce the untraced one reports nothing.
  if (opts.trace && report.failed() != 0) report.clear_metrics();

  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (report.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted()
      << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : report.metrics()) {
    out << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0)
        << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
