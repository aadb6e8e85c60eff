#include "src/harness/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "src/service/jobs.hpp"
#include "src/util/cli.hpp"

namespace sops::harness {

namespace {

/// Probes that `path` can be opened for append, so a bad output path
/// fails at the CLI instead of after hours of sampling. Append mode
/// keeps the probe from truncating an existing file.
void require_writable(const std::string& path, const char* what,
                      const util::Cli& cli, const char* program) {
  std::FILE* probe = std::fopen(path.c_str(), "a");
  if (probe == nullptr) {
    std::cerr << "cli: cannot open " << what << " '" << path
              << "' for writing\n"
              << cli.help_text(program);
    std::exit(kUsageError);
  }
  std::fclose(probe);
}

/// A harness the sweep server cannot run offers no --submit; asking for
/// it anyway is a usage error naming the jobs the server runs, before
/// any connection.
void refuse_unserved_submit(int argc, char** argv, const util::Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg != "--submit" && !arg.starts_with("--submit=")) continue;
    std::cerr << "cli: --submit: the sweep server does not run this "
                 "harness; it runs";
    for (const std::string& name : service::registered_jobs()) {
      std::cerr << ' ' << name;
    }
    std::cerr << "\n" << cli.help_text(argv[0]);
    std::exit(kUsageError);
  }
}

}  // namespace

Options parse_options(int argc, char** argv, bool with_shard,
                      bool with_submit, const char* passthrough_prefix) {
  util::Cli cli;
  cli.add_flag("full", "run at paper scale");
  cli.add_option("seed", "base random seed", "1");
  cli.add_option("threads", "tasks at once (0 = hardware concurrency)", "0");
  cli.add_option("telemetry", "append per-task JSONL records to this file",
                 "");
  if (with_shard) {
    cli.add_option("shard", "run shard k of n ('k/n'); needs --shard-out", "");
    cli.add_option("task-range",
                   "run the half-open task range 'a:b'; needs --shard-out",
                   "");
    cli.add_option("shard-out", "write this shard's result file here", "");
    cli.add_option("merge",
                   "merge comma-separated shard result files and report", "");
    cli.add_option("merge-dir",
                   "merge every *.shard / *.sopsshard file in this directory "
                   "and report",
                   "");
    if (with_submit) {
      cli.add_option("submit",
                     "submit the sweep to the sweep server at this AF_UNIX "
                     "socket and report its results",
                     "");
    }
    cli.add_option("checkpoint-dir",
                   "write per-task resume snapshots to this directory", "");
    cli.add_option("checkpoint-every",
                   "also snapshot chain-backed tasks mid-run every N steps "
                   "(0 = at completion only); a snapshot still queued for "
                   "writing when the next is taken is replaced",
                   "0");
    cli.add_flag("resume",
                 "adopt matching snapshots in --checkpoint-dir: skip "
                 "completed tasks, continue partial ones");
  }
  if (passthrough_prefix != nullptr) {
    cli.set_passthrough_prefix(passthrough_prefix);
  }
  if (with_shard && !with_submit) refuse_unserved_submit(argc, argv, cli);
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << cli.help_text(argv[0]);
    std::exit(kUsageError);
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text(argv[0]);
    std::cout << "\nexit codes: 0 success; " << kUsageError
              << " usage error (bad flags or values, message + usage on "
                 "stderr); "
              << kDataError
              << " data error (refused merge, unusable snapshot, transport "
                 "failure)\n";
    std::exit(0);
  }
  Options opt;
  opt.full = cli.flag("full");
  opt.passthrough = cli.passthrough();
  try {
    opt.seed = cli.unsigned_integer("seed");
    const std::uint64_t threads = cli.unsigned_integer("threads");
    if (threads > 4096) {
      throw std::invalid_argument("cli: --threads out of range (max 4096)");
    }
    opt.threads = static_cast<unsigned>(threads);

    if (with_shard) {
      if (!cli.str("shard").empty()) {
        opt.shard_set = true;
        std::tie(opt.shard_k, opt.shard_n) = cli.shard_of("shard");
      }
      if (!cli.str("task-range").empty()) {
        opt.range_set = true;
        std::tie(opt.range_begin, opt.range_end) =
            cli.index_range("task-range");
      }
      opt.shard_out = cli.str("shard-out");
      opt.merge_dir = cli.str("merge-dir");
      const std::string merge = cli.str("merge");
      for (std::size_t start = 0; !merge.empty();) {
        const auto comma = merge.find(',', start);
        const std::string item = merge.substr(
            start, comma == std::string::npos ? comma : comma - start);
        if (item.empty()) {
          throw std::invalid_argument("cli: empty path in --merge list");
        }
        opt.merge_inputs.push_back(item);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }

      if (opt.shard_set && opt.range_set) {
        throw std::invalid_argument(
            "cli: --shard and --task-range are mutually exclusive");
      }
      if ((opt.shard_set || opt.range_set) && opt.shard_out.empty()) {
        throw std::invalid_argument(
            "cli: --shard/--task-range require --shard-out (a sub-range "
            "report would not be comparable to the full job)");
      }
      if (!opt.merge_inputs.empty() && !opt.merge_dir.empty()) {
        throw std::invalid_argument(
            "cli: --merge and --merge-dir are mutually exclusive");
      }
      if ((!opt.merge_inputs.empty() || !opt.merge_dir.empty()) &&
          (opt.shard_set || opt.range_set || !opt.shard_out.empty())) {
        throw std::invalid_argument(
            "cli: --merge/--merge-dir cannot be combined with --shard/"
            "--task-range/--shard-out");
      }
      if (with_submit) opt.submit = cli.str("submit");
      if (!opt.submit.empty() &&
          (opt.shard_set || opt.range_set || !opt.shard_out.empty() ||
           !opt.merge_inputs.empty() || !opt.merge_dir.empty())) {
        throw std::invalid_argument(
            "cli: --submit cannot be combined with --shard/--task-range/"
            "--shard-out/--merge/--merge-dir (the server runs the whole "
            "job)");
      }

      opt.checkpoint_dir = cli.str("checkpoint-dir");
      opt.checkpoint_every = cli.unsigned_integer("checkpoint-every");
      opt.resume = cli.flag("resume");
      if (opt.checkpoint_dir.empty() &&
          (opt.checkpoint_every != 0 || opt.resume)) {
        throw std::invalid_argument(
            "cli: --checkpoint-every/--resume require --checkpoint-dir");
      }
      if (!opt.checkpoint_dir.empty() &&
          (!opt.merge_inputs.empty() || !opt.merge_dir.empty() ||
           !opt.submit.empty())) {
        throw std::invalid_argument(
            "cli: --checkpoint-dir cannot be combined with --merge/"
            "--merge-dir/--submit (snapshots belong to local execution)");
      }
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << cli.help_text(argv[0]);
    std::exit(kUsageError);
  }
  opt.telemetry = cli.str("telemetry");
  if (!opt.telemetry.empty()) {
    // Fail fast at the CLI instead of letting engine::ProgressSink throw
    // out of main() mid-setup.
    require_writable(opt.telemetry, "telemetry file", cli, argv[0]);
  }
  if (!opt.shard_out.empty()) {
    // Same fail-fast rule for the shard result file: a worker must not
    // discover an unwritable path after hours of sampling.
    require_writable(opt.shard_out, "shard result file", cli, argv[0]);
  }
  if (!opt.checkpoint_dir.empty()) {
    // Create the snapshot directory up front and prove it writable, so
    // the first mid-task snapshot (possibly hours in) cannot be the
    // first thing to notice a typo'd or read-only path.
    std::error_code ec;
    std::filesystem::create_directories(opt.checkpoint_dir, ec);
    if (ec) {
      std::cerr << "cli: cannot create checkpoint directory '"
                << opt.checkpoint_dir << "': " << ec.message() << "\n"
                << cli.help_text(argv[0]);
      std::exit(kUsageError);
    }
    const std::string probe = opt.checkpoint_dir + "/.sops-probe";
    require_writable(probe, "checkpoint directory", cli, argv[0]);
    std::remove(probe.c_str());
  }
  return opt;
}

}  // namespace sops::harness
