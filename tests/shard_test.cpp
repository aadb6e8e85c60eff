#include "src/shard/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/model/separation.hpp"
#include "src/engine/seed_stream.hpp"
#include "src/lattice/shapes.hpp"
#include "src/shard/harness.hpp"
#include "src/shard/merge.hpp"
#include "src/shard/plan.hpp"
#include "tests/codec_fixtures.hpp"

namespace sops::shard {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// ---- wire round-trip ----------------------------------------------------

using fixtures::tricky_job;
using fixtures::tricky_results;

TEST(Wire, RoundTripIsBitExactAndByteStable) {
  const JobSpec job = tricky_job();
  const auto results = tricky_results(job);
  const std::string text = encode(job, results);

  const ShardFile decoded = decode(text);
  // Re-encoding the decoded file reproduces the bytes exactly — the
  // property that makes merged artifacts byte-identical.
  EXPECT_EQ(encode(decoded.job, decoded.results), text);

  EXPECT_EQ(decoded.job.name, job.name);
  EXPECT_EQ(decoded.job.model, "alignment");
  EXPECT_EQ(decoded.job.grid.replicas, 2u);
  EXPECT_TRUE(decoded.job.grid.derive_seeds);
  EXPECT_EQ(decoded.job.checkpoints, job.checkpoints);
  EXPECT_EQ(decoded.job.params, job.params);
  ASSERT_EQ(decoded.job.tasks.size(), 4u);
  EXPECT_EQ(decoded.job.tasks[3].seed, engine::task_seed(42, 3));

  ASSERT_EQ(decoded.results.size(), 2u);
  const engine::TaskResult& a = decoded.results[0];
  EXPECT_EQ(a.task.index, 0u);
  EXPECT_EQ(a.steps, 10000u);
  ASSERT_EQ(a.series.size(), 1u);
  EXPECT_EQ(a.series[0].perimeter, -3);
  EXPECT_TRUE(std::isnan(a.series[0].perimeter_ratio));
  EXPECT_EQ(bits_of(a.series[0].hetero_fraction),
            bits_of(-std::numeric_limits<double>::infinity()));
  ASSERT_EQ(a.aux.size(), 5u);
  EXPECT_TRUE(std::isnan(a.aux[0]));
  EXPECT_EQ(bits_of(a.aux[2]), bits_of(-0.0));  // negative zero preserved
  EXPECT_EQ(bits_of(a.aux[3]), bits_of(5e-324));
  EXPECT_EQ(bits_of(a.aux[4]), bits_of(-1.0 / 3.0));
  EXPECT_EQ(a.wall_seconds, 0.0);  // telemetry stripped by design

  const engine::TaskResult& b = decoded.results[1];
  EXPECT_EQ(b.task.index, 2u);
  EXPECT_TRUE(b.series.empty());
  EXPECT_TRUE(b.aux.empty());
}

TEST(Wire, V2DocumentsAreRefusedAsUnsupported) {
  // v2 predates the model line. Nothing writes it any more, so the
  // reader refuses it by version rather than guessing the model.
  JobSpec job = tricky_job();
  job.model = "separation";
  std::string v2 = encode(job, tricky_results(job));
  v2.replace(v2.find(" v3\n"), 4, " v2\n");
  v2.erase(v2.find("model separation\n"),
           std::string("model separation\n").size());
  try {
    (void)decode(v2);
    FAIL() << "decoded a v2 document";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "wire: line 1: unsupported wire version v2 (reader speaks "
                  "v3)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Wire, DeclaredCountsBeyondTheInputAreWireErrors) {
  // A count of 2^62 once sized a reserve() and threw std::length_error;
  // every counted block is now checked against the lines left.
  const JobSpec job = tricky_job();
  const std::string good = encode(job, tricky_results(job));
  for (const char* key : {"params 2", "tasks 4", "results 2", "r 0 10000 1"}) {
    std::string bad = good;
    const std::string k(key);
    const std::string huge = k.substr(0, k.rfind(' ') + 1) +
                             "4611686018427387904";
    bad.replace(bad.find(k), k.size(), huge);
    try {
      (void)decode(bad);
      FAIL() << "decoded " << huge;
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds the"), std::string::npos)
          << e.what();
    }
  }
  std::string bad_axis = good;
  bad_axis.replace(bad_axis.find("grid.gammas 1"), 13,
                   "grid.gammas 4611686018427387904");
  EXPECT_THROW((void)decode(bad_axis), WireError);
}

TEST(Wire, EncodeRejectsUnencodableSpecs) {
  JobSpec job = tricky_job();
  job.name = "two tokens";
  EXPECT_THROW((void)encode(job, {}), std::invalid_argument);
  job = tricky_job();
  job.params = {"has space"};
  EXPECT_THROW((void)encode(job, {}), std::invalid_argument);
  job = tricky_job();
  job.model = "two tokens";
  EXPECT_THROW((void)encode(job, {}), std::invalid_argument);
  job = tricky_job();
  job.tasks[1].index = 5;  // not dense
  EXPECT_THROW((void)encode(job, {}), std::invalid_argument);

  job = tricky_job();
  auto results = tricky_results(job);
  std::swap(results[0], results[1]);  // out of order
  EXPECT_THROW((void)encode(job, results), std::invalid_argument);
}

TEST(Wire, DecodeIsStrict) {
  const JobSpec job = tricky_job();
  const std::string good = encode(job, tricky_results(job));
  ASSERT_NO_THROW((void)decode(good));

  const auto expect_rejected = [](std::string text, const char* what) {
    EXPECT_THROW((void)decode(text), WireError) << what << ":\n" << text;
  };

  expect_rejected("", "empty input");
  expect_rejected("sops-shard-wire v4\n", "unknown version");
  expect_rejected("sops-shard-wire v2\n", "retired version");
  expect_rejected("sops-shard-wire v1\n", "obsolete version");
  expect_rejected("not-a-shard-file v3\n", "bad magic");

  // Truncation anywhere — drop the trailing 'end' line.
  expect_rejected(good.substr(0, good.size() - 4), "missing end marker");
  // Truncation mid-results.
  expect_rejected(good.substr(0, good.find("\nr ") + 1), "truncated results");
  // Trailing garbage after end.
  expect_rejected(good + "extra\n", "trailing content");
  // Double space = empty token.
  {
    std::string t = good;
    t.replace(t.find(" v3"), 1, "  ");
    expect_rejected(t, "empty token");
  }
  // Tampered count.
  {
    std::string t = good;
    t.replace(t.find("tasks 4"), 7, "tasks 3");
    expect_rejected(t, "task count mismatch");
  }
  // Non-numeric where a number belongs.
  {
    std::string t = good;
    t.replace(t.find("grid.base_seed 42"), 17, "grid.base_seed xx");
    expect_rejected(t, "bad integer");
  }
}

TEST(Wire, DecodeRejectsDisorderedOrOffTableResults) {
  const JobSpec job = tricky_job();
  auto results = tricky_results(job);

  // Duplicate result index (encode refuses; forge via string surgery).
  std::string text = encode(job, results);
  const auto r_pos = text.find("\nr 2 ");
  ASSERT_NE(r_pos, std::string::npos);
  std::string dup = text;
  dup.replace(r_pos, 5, "\nr 0 ");  // second record repeats index 0
  EXPECT_THROW((void)decode(dup), WireError);

  std::string off = text;
  off.replace(r_pos, 5, "\nr 9 ");  // index outside the 4-task table
  EXPECT_THROW((void)decode(off), WireError);
}

// ---- planner ------------------------------------------------------------

TEST(Plan, BalancedContiguousCoverage) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 16ull, 100ull}) {
    for (const std::uint64_t n : {1ull, 2ull, 3ull, 7ull, 16ull}) {
      const auto plan = shard_plan(total, n);
      ASSERT_EQ(plan.size(), n);
      EXPECT_EQ(plan.front().begin, 0u);
      EXPECT_EQ(plan.back().end, total);
      std::uint64_t max_size = 0, min_size = UINT64_MAX;
      for (std::size_t k = 0; k < plan.size(); ++k) {
        if (k > 0) {
          EXPECT_EQ(plan[k].begin, plan[k - 1].end);  // contiguous
        }
        max_size = std::max(max_size, plan[k].size());
        min_size = std::min(min_size, plan[k].size());
      }
      EXPECT_LE(max_size - min_size, 1u) << total << "/" << n;
      EXPECT_TRUE(coverage(total, plan).complete());
    }
  }
}

TEST(Plan, RejectsBadShards) {
  EXPECT_THROW((void)shard_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)shard_range(10, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)shard_range(10, 7, 3), std::invalid_argument);
}

TEST(Plan, CheckedRangeValidates) {
  EXPECT_EQ(checked_range(10, 2, 5), (TaskRange{2, 5}));
  EXPECT_THROW((void)checked_range(10, 5, 5), std::invalid_argument);
  EXPECT_THROW((void)checked_range(10, 6, 2), std::invalid_argument);
  EXPECT_THROW((void)checked_range(10, 2, 11), std::invalid_argument);
}

TEST(Plan, CoverageReportsExactIndices) {
  const std::vector<TaskRange> gappy{{0, 3}, {5, 8}};
  const Coverage gap = coverage(8, gappy);
  EXPECT_EQ(gap.missing, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_TRUE(gap.duplicated.empty());

  const std::vector<TaskRange> overlapping{{0, 5}, {3, 8}};
  const Coverage dup = coverage(8, overlapping);
  EXPECT_TRUE(dup.missing.empty());
  EXPECT_EQ(dup.duplicated, (std::vector<std::uint64_t>{3, 4}));

  const Coverage stray = coverage_of_indices(4, std::vector<std::uint64_t>{0, 1, 2, 3, 9});
  EXPECT_TRUE(stray.missing.empty());
  EXPECT_EQ(stray.duplicated, (std::vector<std::uint64_t>{9}));
}

// ---- end-to-end: shard → merge == single host ---------------------------

engine::GridSpec small_spec() {
  engine::GridSpec spec;
  spec.lambdas = {2.0, 4.0};
  spec.gammas = {1.0, 4.0};
  spec.replicas = 2;
  spec.base_seed = 11;
  return spec;
}

engine::ChainJob small_chain_job() {
  engine::ChainJob job;
  job.make_model = [](const engine::Task& t) {
    util::Rng rng(t.seed);
    const auto nodes = lattice::random_blob(30, rng);
    const auto colors = core::balanced_random_colors(30, 2, rng);
    return model::make_separation(
        core::SeparationChain(system::ParticleSystem(nodes, colors),
                              core::Params{t.lambda, t.gamma, true},
                              t.seed));
  };
  job.checkpoints = {0, 10000, 30000};
  return job;
}

AuxFn final_hetero_aux() {
  return [](const engine::TaskResult& r) {
    return std::vector<double>{
        r.series.empty() ? 0.0 : r.series.back().hetero_fraction};
  };
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(EndToEnd, TwoShardsMergeBitIdenticalToSingleHost) {
  const engine::ChainJob cjob = small_chain_job();
  const JobSpec job = grid_job("shard_e2e", small_spec(), cjob, {"n=30"});

  // Single host, 2 threads.
  engine::ThreadPool pool_a(2);
  const auto whole =
      run_or_merge(job, Modes{}, pool_a, cjob, nullptr, final_hetero_aux());
  ASSERT_TRUE(whole.has_value());

  // Two workers at different thread counts, writing shard files.
  const std::string f0 = temp_path("shard_e2e_0.shard");
  const std::string f1 = temp_path("shard_e2e_1.shard");
  {
    Modes w0;
    w0.shard_set = true;
    w0.shard_k = 0;
    w0.shard_n = 2;
    w0.out = f0;
    engine::ThreadPool pool(1);
    EXPECT_FALSE(
        run_or_merge(job, w0, pool, cjob, nullptr, final_hetero_aux())
            .has_value());
  }
  {
    Modes w1;
    w1.shard_set = true;
    w1.shard_k = 1;
    w1.shard_n = 2;
    w1.out = f1;
    engine::ThreadPool pool(3);
    EXPECT_FALSE(
        run_or_merge(job, w1, pool, cjob, nullptr, final_hetero_aux())
            .has_value());
  }

  // Coordinator merge.
  Modes merge;
  merge.merge_inputs = {f1, f0};  // order must not matter
  engine::ThreadPool pool_b(1);
  const auto merged = run_or_merge(job, merge, pool_b, cjob);
  ASSERT_TRUE(merged.has_value());

  // The merged artifact is byte-identical to the single-host one.
  EXPECT_EQ(encode(job, *merged), encode(job, *whole));

  // And a canonical re-merge through the file API agrees too.
  const std::vector<ShardFile> files{read_shard_file(f0), read_shard_file(f1)};
  EXPECT_EQ(encode(job, merge_results(files)), encode(job, *whole));

  std::remove(f0.c_str());
  std::remove(f1.c_str());
}

TEST(EndToEnd, TaskRangeWorkersTileTheJobToo) {
  const engine::ChainJob cjob = small_chain_job();
  const JobSpec job = grid_job("shard_e2e_ranges", small_spec(), cjob);
  engine::ThreadPool pool(2);

  const auto whole = run_or_merge(job, Modes{}, pool, cjob);
  ASSERT_TRUE(whole.has_value());

  const std::string f0 = temp_path("shard_range_0.shard");
  const std::string f1 = temp_path("shard_range_1.shard");
  const std::string f2 = temp_path("shard_range_2.shard");
  const std::uint64_t cuts[][2] = {{0, 3}, {3, 4}, {4, 8}};
  const std::string* paths[] = {&f0, &f1, &f2};
  for (int i = 0; i < 3; ++i) {
    Modes w;
    w.range_set = true;
    w.range_begin = cuts[i][0];
    w.range_end = cuts[i][1];
    w.out = *paths[i];
    EXPECT_FALSE(run_or_merge(job, w, pool, cjob).has_value());
  }

  Modes merge;
  merge.merge_inputs = {f0, f1, f2};
  const auto merged = run_or_merge(job, merge, pool, cjob);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(encode(job, *merged), encode(job, *whole));

  std::remove(f0.c_str());
  std::remove(f1.c_str());
  std::remove(f2.c_str());
}

TEST(EndToEnd, PartialRunWithoutOutIsRefused) {
  const engine::ChainJob cjob = small_chain_job();
  const JobSpec job = grid_job("shard_noout", small_spec(), cjob);
  engine::ThreadPool pool(1);
  Modes w;
  w.shard_set = true;
  w.shard_k = 0;
  w.shard_n = 2;
  EXPECT_THROW((void)run_or_merge(job, w, pool, cjob), std::invalid_argument);
}

// ---- merge refusals -----------------------------------------------------

/// Two shard files of a tiny synthetic job, built without running chains.
struct TwoShards {
  JobSpec job;
  ShardFile a, b;
};

TwoShards synthetic_shards() {
  TwoShards s;
  s.job.name = "merge_refusals";
  s.job.grid.lambdas = {4.0};
  s.job.grid.gammas = {1.0, 2.0};
  s.job.grid.replicas = 2;
  s.job.grid.base_seed = 9;
  s.job.tasks = engine::grid_tasks(s.job.grid);
  s.a.job = s.job;
  s.b.job = s.job;
  for (std::size_t i = 0; i < 4; ++i) {
    engine::TaskResult r;
    r.task = s.job.tasks[i];
    r.steps = 100 + i;
    (i < 2 ? s.a : s.b).results.push_back(r);
  }
  return s;
}

TEST(Merge, AcceptsACompleteTiling) {
  const TwoShards s = synthetic_shards();
  const std::vector<ShardFile> files{s.a, s.b};
  const auto merged = merge_results(s.job, files);
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(merged[i].task.index, i);
    EXPECT_EQ(merged[i].steps, 100 + i);
  }
}

TEST(Merge, RefusesMissingShardListingIndices) {
  const TwoShards s = synthetic_shards();
  const std::vector<ShardFile> files{s.a};  // shard b absent
  try {
    (void)merge_results(s.job, files);
    FAIL() << "expected MergeError";
  } catch (const MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("missing task indices [2, 3]"),
              std::string::npos)
        << e.what();
  }
}

TEST(Merge, RefusesOverlapListingIndices) {
  const TwoShards s = synthetic_shards();
  ShardFile b_plus = s.b;
  b_plus.results.insert(b_plus.results.begin(), s.a.results[1]);  // index 1 twice
  const std::vector<ShardFile> files{s.a, b_plus};
  try {
    (void)merge_results(s.job, files);
    FAIL() << "expected MergeError";
  } catch (const MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicated task indices [1]"),
              std::string::npos)
        << e.what();
  }
}

TEST(Merge, RefusesSeedMismatchListingIndices) {
  const TwoShards s = synthetic_shards();
  ShardFile bad = s.b;
  bad.job.tasks[3].seed ^= 1;  // worker ran with a different seed table
  const std::vector<ShardFile> files{s.a, bad};
  try {
    (void)merge_results(s.job, files);
    FAIL() << "expected MergeError";
  } catch (const MergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("seed or parameter mismatch"), std::string::npos)
        << what;
    EXPECT_NE(what.find("[3]"), std::string::npos) << what;
  }
}

TEST(Merge, RefusesForeignJobNamingTheField) {
  const TwoShards s = synthetic_shards();
  ShardFile foreign = s.b;
  foreign.job.grid.base_seed = 77;
  foreign.job.tasks = engine::grid_tasks(foreign.job.grid);
  const std::vector<ShardFile> files{s.a, foreign};
  try {
    (void)merge_results(s.job, files);
    FAIL() << "expected MergeError";
  } catch (const MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("grid.base_seed"), std::string::npos)
        << e.what();
  }
}

TEST(Merge, RefusesEmptyInput) {
  EXPECT_THROW((void)merge_results(std::vector<ShardFile>{}), MergeError);
}

// ---- elastic consolidation ----------------------------------------------

TEST(Consolidate, CompleteTilingMatchesMergeExactly) {
  const TwoShards s = synthetic_shards();
  const std::vector<ShardFile> files{s.a, s.b};
  const Replan plan = consolidate_results(s.job, files);
  EXPECT_TRUE(plan.complete());
  EXPECT_TRUE(plan.gaps.empty());
  // Gap-free consolidation must be byte-for-byte the canonical merge —
  // this is what lets `--elastic --out` write the canonical artifact.
  EXPECT_EQ(encode(s.job, plan.partial),
            encode(s.job, merge_results(s.job, files)));
}

TEST(Consolidate, ReportsMaximalGapRanges) {
  const TwoShards s = synthetic_shards();
  ShardFile only_last = s.b;
  only_last.results.erase(only_last.results.begin());  // keep index 3 only
  const Replan plan = consolidate_results(s.job, {&only_last, 1});
  EXPECT_FALSE(plan.complete());
  ASSERT_EQ(plan.partial.size(), 1u);
  EXPECT_EQ(plan.partial[0].task.index, 3u);
  // Tasks 0..2 are one contiguous hole, not three singleton ranges.
  ASSERT_EQ(plan.gaps.size(), 1u);
  EXPECT_EQ(plan.gaps[0], (TaskRange{0, 3}));
}

TEST(Consolidate, ReportsDisjointGapsSeparately) {
  const TwoShards s = synthetic_shards();
  ShardFile middle;
  middle.job = s.job;
  middle.results = {s.a.results[1], s.b.results[0]};  // indices 1, 2
  const Replan plan = consolidate_results(s.job, {&middle, 1});
  ASSERT_EQ(plan.gaps.size(), 2u);
  EXPECT_EQ(plan.gaps[0], (TaskRange{0, 1}));
  EXPECT_EQ(plan.gaps[1], (TaskRange{3, 4}));
}

TEST(Consolidate, AcceptsValueIdenticalOverlap) {
  // A worker reran after a crash: both its old partial file and the
  // rerun's file claim task 1 with identical values. Legal.
  const TwoShards s = synthetic_shards();
  ShardFile rerun = s.b;
  rerun.results.insert(rerun.results.begin(), s.a.results[1]);
  const Replan plan = consolidate_results(s.job, {{s.a, rerun}});
  EXPECT_TRUE(plan.complete());
  ASSERT_EQ(plan.partial.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.partial[i].task.index, i);
  }
}

TEST(Consolidate, RefusesConflictingOverlapNamingTheTask) {
  const TwoShards s = synthetic_shards();
  ShardFile rerun = s.b;
  engine::TaskResult forged = s.a.results[1];
  forged.steps ^= 1;  // same index, different payload: spec drift
  rerun.results.insert(rerun.results.begin(), forged);
  try {
    (void)consolidate_results(s.job, {{s.a, rerun}});
    FAIL() << "expected MergeError";
  } catch (const MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("task 1"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("conflicting"), std::string::npos)
        << e.what();
  }
}

TEST(Consolidate, OverlapComparesSeriesBitsNotValues) {
  // NaN != NaN under operator==, but an honest rerun reproduces the
  // same bit pattern; value identity must be bitwise to accept it.
  const TwoShards s = synthetic_shards();
  ShardFile a = s.a, b = s.b;
  core::Measurement m;
  m.iteration = 50;
  m.perimeter_ratio = std::numeric_limits<double>::quiet_NaN();
  a.results[1].series = {m};
  b.results.insert(b.results.begin(), a.results[1]);
  const Replan plan = consolidate_results(s.job, {{a, b}});
  EXPECT_TRUE(plan.complete());
}

TEST(Consolidate, StillRefusesForeignFiles) {
  const TwoShards s = synthetic_shards();
  ShardFile foreign = s.b;
  foreign.job.grid.base_seed = 123;
  foreign.job.tasks = engine::grid_tasks(foreign.job.grid);
  EXPECT_THROW((void)consolidate_results(s.job, {{s.a, foreign}}),
               MergeError);
}

TEST(Consolidate, FirstFileReferenceOverloadRefusesEmpty) {
  EXPECT_THROW((void)consolidate_results(std::vector<ShardFile>{}),
               MergeError);
}

// ---- --merge-dir file discovery -----------------------------------------

TEST(MergeDir, ListsShardFilesSortedByFilename) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "sops_shard_test_listdir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Created in an order unrelated to the names; readdir order is
  // filesystem-dependent, so the contract is a filename-keyed sort.
  for (const char* name : {"w10.sopsshard", "w2.shard", "notashard.txt",
                           "w1.sopsshard", "a.shard"}) {
    std::FILE* f = std::fopen((dir / name).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  const std::vector<std::string> files = list_shard_files(dir.string());
  ASSERT_EQ(files.size(), 4u);  // .txt excluded
  std::vector<std::string> names;
  for (const std::string& p : files) {
    names.push_back(fs::path(p).filename().string());
  }
  // Bytewise filename order: "w10" < "w2" (no numeric collation).
  const std::vector<std::string> want{"a.shard", "w1.sopsshard",
                                      "w10.sopsshard", "w2.shard"};
  EXPECT_EQ(names, want);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sops::shard
