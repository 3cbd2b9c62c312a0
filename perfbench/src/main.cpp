// perfbench: the serving benchmark.
//
//   perfbench --workload search_tcp|tenant_open|update_cluster --seed N
//             --seconds S --trace 0|1 --out-dir DIR --work-dir DIR
//             [--tiny] [--inject-swap]
//
// --trace 0 measures the end-to-end metrics with the benchmark's tracing
// off; --trace 1 measures the per-layer metrics (the traced waterfall)
// instead. Human-readable progress goes to stderr. Standard output is one
// JSON line: correct, attempted, failed, the measured values by metric
// name, failures by kind and the run record (sample counts, host
// environment, cost counters). run.py turns it into the result line,
// taking the metric list and units from BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload search_tcp|tenant_open|"
               "update_cluster --seed N --seconds S --trace 0|1 --out-dir DIR "
               "--work-dir DIR [--tiny] [--inject-swap]\n",
               why);
  std::exit(2);
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        opt.trace = t == "1";
        have_trace = true;
      } else if (arg == "--out-dir") {
        opt.out_dir = value();
      } else if (arg == "--work-dir") {
        opt.work_dir = value();
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--inject-swap") {
        opt.inject_swap = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      opt.out_dir.empty() || opt.work_dir.empty())
    usage("missing required arguments");
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

int run(const Options& opt) {
  Outcome out;
  if (opt.workload == "search_tcp") {
    out = run_search_tcp(opt);
  } else if (opt.workload == "tenant_open") {
    out = run_tenant_open(opt);
  } else if (opt.workload == "update_cluster") {
    out = run_update_cluster(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  const auto object = [](const auto& map, const auto& format) {
    std::string s = "{";
    for (const auto& [key, v] : map) s += (s.size() > 1 ? ", " : "") + quoted(key) + ": " + format(v);
    return s + "}";
  };
  const auto count = [](std::uint64_t v) { return std::to_string(v); };
  std::string wrong = "[";
  for (const std::string& w : out.wrong) wrong += (wrong.size() > 1 ? ", " : "") + quoted(w);
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"values\": %s, \"failures_by_kind\": %s, \"detail\": %s, "
      "\"wrong\": %s]}\n",
      quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), object(out.values, number).c_str(),
      object(out.failures_by_kind, count).c_str(), object(out.detail, number).c_str(),
      wrong.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    std::filesystem::create_directories(opt.out_dir);
    std::filesystem::create_directories(opt.work_dir);
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
