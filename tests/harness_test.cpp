#include "src/harness/harness.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/shard/wire.hpp"

namespace sops::harness {
namespace {

// A tiny deterministic sweep: no chains, just arithmetic on the Task
// record, so the whole framework path (parse → banner → engine →
// shard dispatch → report) runs in microseconds.
Spec tiny_spec() {
  Spec spec;
  spec.name = "harness_test_job";
  spec.experiment = "T0";
  spec.paper_artifact = "harness framework self-test";
  spec.claim =
      "reports are byte-identical across thread counts and shard merges";
  spec.sweep = [](const Options& opt) {
    Sweep sw;
    sw.job.grid.lambdas = {2.0, 4.0};
    sw.job.grid.gammas = {1.0, 3.0};
    sw.job.grid.base_seed = opt.seed;
    sw.job.grid.derive_seeds = true;  // base_seed changes every task seed
    sw.job.params = {"model=self-test"};
    sw.job.tasks = engine::grid_tasks(sw.job.grid);
    sw.fn = [](const engine::Task& t) {
      core::Measurement m;
      m.iteration = t.index;
      m.perimeter_ratio = t.lambda + t.gamma / 10.0;
      m.hetero_fraction = static_cast<double>(t.seed % 97) / 97.0;
      return std::vector<core::Measurement>{m};
    };
    sw.aux = [](const engine::TaskResult& r) {
      return std::vector<double>{r.task.lambda * 100.0 + r.task.gamma,
                                 static_cast<double>(r.task.seed % 1000)};
    };
    sw.report = [](const Options&,
                   std::span<const engine::TaskResult> results) {
      for (const auto& r : results) {
        std::printf("%zu %.3f %.5f %.0f %.0f\n", r.task.index,
                    r.series.back().perimeter_ratio,
                    r.series.back().hetero_fraction, aux_value(r, 0),
                    aux_value(r, 1));
      }
      return 0;
    };
    return sw;
  };
  return spec;
}

struct RunResult {
  int code = -1;
  std::string out;  // stdout
  std::string err;  // stderr
};

/// Runs the tiny spec through harness::run with the given arguments,
/// capturing both streams.
RunResult run_tiny(std::vector<std::string> args) {
  const Spec spec = tiny_spec();
  std::vector<std::string> all{"harness_test"};
  for (auto& a : args) all.push_back(a);
  std::vector<char*> argv;
  argv.reserve(all.size());
  for (auto& s : all) argv.push_back(s.data());

  RunResult r;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  r.code = run(spec, static_cast<int>(argv.size()), argv.data());
  r.out = testing::internal::GetCapturedStdout();
  r.err = testing::internal::GetCapturedStderr();
  return r;
}

/// Capture-free variant for death tests: EXPECT_EXIT owns the streams,
/// so the child must not install its own capturer.
int run_tiny_raw(std::vector<std::string> args) {
  const Spec spec = tiny_spec();
  std::vector<std::string> all{"harness_test"};
  for (auto& a : args) all.push_back(a);
  std::vector<char*> argv;
  argv.reserve(all.size());
  for (auto& s : all) argv.push_back(s.data());
  return run(spec, static_cast<int>(argv.size()), argv.data());
}

std::string temp_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---- byte-identity ------------------------------------------------------

TEST(Harness, ReportBytesIdenticalAcrossThreadCounts) {
  const RunResult one = run_tiny({"--threads", "1"});
  const RunResult four = run_tiny({"--threads", "4"});
  ASSERT_EQ(one.code, 0);
  ASSERT_EQ(four.code, 0);
  EXPECT_FALSE(one.out.empty());
  EXPECT_EQ(one.out, four.out);
}

TEST(Harness, WorkerMergeRoundTripMatchesFullRun) {
  const RunResult full = run_tiny({"--threads", "2"});
  ASSERT_EQ(full.code, 0);

  const std::string dir = temp_dir("harness_rt");
  const std::string f0 = dir + "/part0.shard";
  const std::string f1 = dir + "/part1.shard";
  // Workers at different thread counts — the merge must not care.
  const RunResult w0 =
      run_tiny({"--shard", "0/2", "--shard-out", f0, "--threads", "1"});
  const RunResult w1 =
      run_tiny({"--shard", "1/2", "--shard-out", f1, "--threads", "3"});
  ASSERT_EQ(w0.code, 0) << w0.err;
  ASSERT_EQ(w1.code, 0) << w1.err;

  // Explicit file list, in scrambled order.
  const RunResult merged = run_tiny({"--merge", f1 + "," + f0});
  EXPECT_EQ(merged.code, 0) << merged.err;
  EXPECT_EQ(merged.out, full.out);

  // Directory glob form.
  const RunResult globbed = run_tiny({"--merge-dir", dir});
  EXPECT_EQ(globbed.code, 0) << globbed.err;
  EXPECT_EQ(globbed.out, full.out);

  std::filesystem::remove_all(dir);
}

// ---- merge refusals through the harness ---------------------------------

TEST(Harness, MergeRefusesForeignSeedShard) {
  const std::string dir = temp_dir("harness_foreign");
  const std::string f0 = dir + "/part0.shard";
  const std::string f1 = dir + "/part1.shard";
  ASSERT_EQ(run_tiny({"--shard", "0/2", "--shard-out", f0}).code, 0);
  // Worker ran the wrong job: --seed 99 rewrites every task seed.
  ASSERT_EQ(
      run_tiny({"--seed", "99", "--shard", "1/2", "--shard-out", f1}).code,
      0);

  const RunResult merged = run_tiny({"--merge", f0 + "," + f1});
  EXPECT_EQ(merged.code, kDataError);
  EXPECT_NE(merged.err.find("grid.base_seed"), std::string::npos)
      << merged.err;
  std::filesystem::remove_all(dir);
}

TEST(Harness, MergeNamesTheMissingShardFile) {
  const std::string dir = temp_dir("harness_missing");
  const std::string f0 = dir + "/part0.shard";
  ASSERT_EQ(run_tiny({"--shard", "0/2", "--shard-out", f0}).code, 0);

  const RunResult merged = run_tiny({"--merge-dir", dir});
  EXPECT_EQ(merged.code, kDataError);
  // The worker manifest ("I am shard 0 of 2") lets the merge name the
  // absent file, not just the absent task indices.
  EXPECT_NE(merged.err.find("missing task indices"), std::string::npos)
      << merged.err;
  EXPECT_NE(merged.err.find("missing shard file 1/2"), std::string::npos)
      << merged.err;
  std::filesystem::remove_all(dir);
}

TEST(Harness, MergeRefusesMixedSplitPlans) {
  const std::string dir = temp_dir("harness_mixed");
  const std::string f0 = dir + "/part0.shard";
  const std::string f1 = dir + "/part1.shard";
  ASSERT_EQ(run_tiny({"--shard", "0/2", "--shard-out", f0}).code, 0);
  ASSERT_EQ(run_tiny({"--shard", "2/3", "--shard-out", f1}).code, 0);

  const RunResult merged = run_tiny({"--merge-dir", dir});
  EXPECT_EQ(merged.code, kDataError);
  EXPECT_NE(merged.err.find("different split plans"), std::string::npos)
      << merged.err;
  std::filesystem::remove_all(dir);
}

TEST(Harness, MergeDirRefusesEmptyDirectory) {
  const std::string dir = temp_dir("harness_empty");
  const RunResult merged = run_tiny({"--merge-dir", dir});
  EXPECT_EQ(merged.code, kDataError);
  EXPECT_NE(merged.err.find("no *.shard"), std::string::npos) << merged.err;
  std::filesystem::remove_all(dir);
}

// ---- worker manifest on the wire ----------------------------------------

TEST(Harness, WorkerShardFileCarriesManifest) {
  const std::string dir = temp_dir("harness_manifest");
  const std::string f0 = dir + "/part0.shard";
  ASSERT_EQ(run_tiny({"--shard", "1/3", "--shard-out", f0}).code, 0);
  const shard::ShardFile file = shard::read_shard_file(f0);
  EXPECT_EQ(file.manifest.n_shards, 3u);
  // 4 tasks over 3 shards → plan {[0,2), [2,3), [3,4)}; shard 1 is [2,3).
  EXPECT_EQ(file.manifest.begin, 2u);
  EXPECT_EQ(file.manifest.end, 3u);
  std::filesystem::remove_all(dir);
}

// ---- checkpoint / resume through the harness ----------------------------

TEST(Harness, CheckpointedRunMatchesPlainRunAndWritesSnapshots) {
  const RunResult plain = run_tiny({});
  ASSERT_EQ(plain.code, 0);

  const std::string dir = temp_dir("harness_ckpt_fresh");
  const RunResult ckpt = run_tiny({"--checkpoint-dir", dir});
  EXPECT_EQ(ckpt.code, 0) << ckpt.err;
  EXPECT_EQ(ckpt.out, plain.out);
  // One completion snapshot per task, named by job and task index.
  for (const char* name :
       {"harness_test_job-task000000.sopsckpt",
        "harness_test_job-task000003.sopsckpt"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name)) << name;
  }
  EXPECT_NE(ckpt.err.find("4 fresh"), std::string::npos) << ckpt.err;
  std::filesystem::remove_all(dir);
}

TEST(Harness, ResumeSkipsCompletedTasksWithIdenticalReport) {
  const std::string dir = temp_dir("harness_ckpt_resume");
  const RunResult first = run_tiny({"--checkpoint-dir", dir});
  ASSERT_EQ(first.code, 0) << first.err;

  const RunResult again = run_tiny({"--checkpoint-dir", dir, "--resume"});
  EXPECT_EQ(again.code, 0) << again.err;
  EXPECT_EQ(again.out, first.out);  // aux values round-trip too
  EXPECT_NE(again.err.find("4 skipped"), std::string::npos) << again.err;
  std::filesystem::remove_all(dir);
}

TEST(Harness, ResumeRefusesCorruptSnapshotNamingChecksum) {
  const std::string dir = temp_dir("harness_ckpt_corrupt");
  ASSERT_EQ(run_tiny({"--checkpoint-dir", dir}).code, 0);
  const std::string victim = dir + "/harness_test_job-task000002.sopsckpt";
  ASSERT_TRUE(std::filesystem::exists(victim));
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 30, SEEK_SET);
    std::fputc('#', f);
    std::fclose(f);
  }
  const RunResult r = run_tiny({"--checkpoint-dir", dir, "--resume"});
  EXPECT_EQ(r.code, kDataError);
  EXPECT_NE(r.err.find("checksum mismatch"), std::string::npos) << r.err;
  std::filesystem::remove_all(dir);
}

TEST(Harness, ResumeRefusesSpecDriftNamingTheField) {
  const std::string dir = temp_dir("harness_ckpt_drift");
  ASSERT_EQ(run_tiny({"--checkpoint-dir", dir}).code, 0);
  // --seed 99 rewrites every task seed: same job name, different spec.
  const RunResult r =
      run_tiny({"--seed", "99", "--checkpoint-dir", dir, "--resume"});
  EXPECT_EQ(r.code, kDataError);
  EXPECT_NE(r.err.find("spec hash mismatch"), std::string::npos) << r.err;
  std::filesystem::remove_all(dir);
}

TEST(Harness, CheckpointedWorkerShardsMergeToPlainReport) {
  const RunResult full = run_tiny({});
  ASSERT_EQ(full.code, 0);

  const std::string sdir = temp_dir("harness_ckpt_shards");
  const std::string cdir = temp_dir("harness_ckpt_shards_snap");
  ASSERT_EQ(run_tiny({"--shard", "0/2", "--shard-out", sdir + "/w0.shard",
                      "--checkpoint-dir", cdir})
                .code,
            0);
  // Second worker resumes from nothing — its snapshots are fresh.
  ASSERT_EQ(run_tiny({"--shard", "1/2", "--shard-out", sdir + "/w1.shard",
                      "--checkpoint-dir", cdir, "--resume"})
                .code,
            0);
  const RunResult merged = run_tiny({"--merge-dir", sdir});
  EXPECT_EQ(merged.code, 0) << merged.err;
  EXPECT_EQ(merged.out, full.out);
  std::filesystem::remove_all(sdir);
  std::filesystem::remove_all(cdir);
}

// ---- exit-code contract -------------------------------------------------

using HarnessDeathTest = ::testing::Test;

TEST(HarnessDeathTest, UnknownFlagExitsUsageError) {
  EXPECT_EXIT((void)run_tiny_raw({"--no-such-flag"}),
              ::testing::ExitedWithCode(kUsageError), "no-such-flag");
}

TEST(HarnessDeathTest, ConflictingModesExitUsageError) {
  EXPECT_EXIT((void)run_tiny_raw({"--merge", "x.shard", "--merge-dir", "d"}),
              ::testing::ExitedWithCode(kUsageError), "mutually exclusive");
}

TEST(HarnessDeathTest, ShardWithoutOutExitsUsageError) {
  EXPECT_EXIT((void)run_tiny_raw({"--shard", "0/2"}),
              ::testing::ExitedWithCode(kUsageError), "--shard-out");
}

TEST(HarnessDeathTest, ResumeWithoutCheckpointDirExitsUsageError) {
  EXPECT_EXIT((void)run_tiny_raw({"--resume"}),
              ::testing::ExitedWithCode(kUsageError), "--checkpoint-dir");
}

TEST(HarnessDeathTest, CheckpointEveryWithoutDirExitsUsageError) {
  EXPECT_EXIT((void)run_tiny_raw({"--checkpoint-every", "500"}),
              ::testing::ExitedWithCode(kUsageError), "--checkpoint-dir");
}

TEST(HarnessDeathTest, CheckpointDirWithMergeDirExitsUsageError) {
  EXPECT_EXIT(
      (void)run_tiny_raw({"--checkpoint-dir", "ck", "--merge-dir", "d"}),
      ::testing::ExitedWithCode(kUsageError), "cannot be combined");
}

TEST(HarnessDeathTest, SubmitWhereTheServerCannotRunTheJobExitsUsageError) {
  // The sweep server has no recipe for the tiny spec's job, so the
  // harness refuses --submit before connecting and names what it runs.
  EXPECT_EXIT((void)run_tiny_raw({"--submit", "absent.sock"}),
              ::testing::ExitedWithCode(kUsageError),
              "does not run this harness; it runs .*bench_fig3_phase_diagram");
}

TEST(HarnessDeathTest, HelpDocumentsTheExitCodeContract) {
  // --help prints to stdout and exits 0; EXPECT_EXIT matches stderr, so
  // alias stdout onto stderr in the child before running.
  EXPECT_EXIT(
      {
        ::dup2(2, 1);
        (void)run_tiny_raw({"--help"});
      },
      ::testing::ExitedWithCode(0),
      "exit codes: 0 success; 2 usage error .*; 1 data error");
}

}  // namespace
}  // namespace sops::harness
