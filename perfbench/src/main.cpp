// sops_perfbench — runs one benchmark workload and prints its result as
// one JSON line on stdout. perfbench/run.py builds this program and turns
// that line into the benchmark's result; run it directly only to debug a
// workload:
//
//   sops_perfbench --workload fig3_full|thm13_ckpt|service_small
//       --seed N --seconds S --bin DIR --work DIR [--trace FILE]
//
// --bin names the directory holding the harness and server binaries,
// --work a fresh scratch directory the run may fill (it becomes the
// working directory, so snapshot and socket paths stay short), --trace a
// JSONL file for the spans of a traced run. The batch workloads measure
// their set-up by re-running this program with --setup-only 1.
//
// Exit status: 0 when every correctness check passed; 1 when a check
// failed (the result line names it); 2 on usage errors; 3 when the
// workload could not run at all (no result line is printed).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "src/model/builtin.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload fig3_full|thm13_ckpt|"
               "service_small --seed N --seconds S --bin DIR --work DIR "
               "[--trace FILE]\n",
               argv0, why.c_str(), argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool setup_only_mode = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--bin") {
        opt.bin_dir = value;
      } else if (flag == "--work") {
        opt.work_dir = value;
      } else if (flag == "--trace") {
        opt.trace_path = value;
      } else if (flag == "--setup-only") {
        setup_only_mode = value == "1";
      } else {
        return usage(argv[0], "unknown flag '" + flag + "'");
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0], "malformed number");
  }
  if (argc % 2 == 0 || opt.bin_dir.empty() || opt.work_dir.empty() ||
      opt.seconds <= 0.0) {
    return usage(argv[0], "missing or malformed arguments");
  }
  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "fig3_full") run = &run_fig3_full;
  if (opt.workload == "thm13_ckpt") run = &run_thm13_ckpt;
  if (opt.workload == "service_small") run = &run_service_small;
  if (run == nullptr) {
    return usage(argv[0], "unknown workload '" + opt.workload + "'");
  }

  Result result;
  try {
    if (::chdir(opt.work_dir.c_str()) != 0) {
      throw std::runtime_error("cannot enter work directory '" +
                               opt.work_dir + "'");
    }
    model::ensure_builtin_models();
    if (setup_only_mode) {
      setup_only(opt);
      return 0;
    }
    result = run(opt);
    if (!opt.trace_path.empty()) tracer().write_jsonl(opt.trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot run: %s\n", opt.workload.c_str(),
                 e.what());
    return 3;
  }

  std::string line = "{\"correct\":";
  line += result.failed_checks.empty() ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"failed_checks\":[";
  for (std::size_t i = 0; i < result.failed_checks.size(); ++i) {
    line += (i ? "," : "") + json_string(result.failed_checks[i]);
  }
  line += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    char number[64];
    if (std::isfinite(value)) {
      std::snprintf(number, sizeof number, "%.17g", value);
    } else {
      std::snprintf(number, sizeof number, "%s",
                    std::isnan(value) ? "NaN" : value > 0 ? "Infinity"
                                                          : "-Infinity");
    }
    line += (first ? "" : ",") + json_string(name) + ":" + number;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  for (const std::string& check : result.failed_checks) {
    std::fprintf(stderr, "%s: check failed: %s\n", opt.workload.c_str(),
                 check.c_str());
  }
  return result.failed_checks.empty() ? 0 : 1;
}
