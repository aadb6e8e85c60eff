#include "src/engine/ensemble.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/engine/seed_stream.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/separation.hpp"

namespace sops::engine {
namespace {

TEST(SeedStream, PureAndOrderIndependent) {
  const SeedStream s(42);
  const std::uint64_t s5 = s.at(5);
  EXPECT_EQ(s.at(0), s.at(0));
  EXPECT_EQ(s.at(5), s5);           // random access, no hidden state
  EXPECT_EQ(task_seed(42, 5), s5);  // the class is a view of the function
}

TEST(SeedStream, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 2ull, 42ull, ~0ull}) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      seen.insert(task_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 500u);  // no collisions across small seeds/indices
}

TEST(GridTasks, EnumeratesLambdaMajorWithDerivedSeeds) {
  GridSpec spec;
  spec.lambdas = {1.0, 2.0};
  spec.gammas = {0.5, 4.0};
  spec.replicas = 3;
  spec.base_seed = 7;
  const auto tasks = grid_tasks(spec);
  ASSERT_EQ(tasks.size(), 12u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
    EXPECT_EQ(tasks[i].seed, task_seed(7, i));
  }
  // λ-major: replica innermost, then γ, then λ.
  EXPECT_DOUBLE_EQ(tasks[0].lambda, 1.0);
  EXPECT_DOUBLE_EQ(tasks[0].gamma, 0.5);
  EXPECT_EQ(tasks[2].replica, 2u);
  EXPECT_DOUBLE_EQ(tasks[3].gamma, 4.0);
  EXPECT_DOUBLE_EQ(tasks[6].lambda, 2.0);
}

TEST(GridTasks, SharedSeedModeUsesBaseSeedVerbatim) {
  GridSpec spec;
  spec.lambdas = {4.0};
  spec.gammas = {1.0, 2.0};
  spec.base_seed = 99;
  spec.derive_seeds = false;
  for (const Task& t : grid_tasks(spec)) EXPECT_EQ(t.seed, 99u);
}

TEST(GridTasks, RejectsEmptyAxes) {
  GridSpec spec;
  spec.lambdas.clear();
  EXPECT_THROW(grid_tasks(spec), std::invalid_argument);
  spec = GridSpec{};
  spec.replicas = 0;
  EXPECT_THROW(grid_tasks(spec), std::invalid_argument);
}

// A small but real ensemble: 2×2 grid × 2 replicas of 30-particle
// chains. Used by the determinism tests below.
GridSpec small_spec() {
  GridSpec spec;
  spec.lambdas = {2.0, 4.0};
  spec.gammas = {1.0, 4.0};
  spec.replicas = 2;
  spec.base_seed = 11;
  return spec;
}

ChainJob small_job() {
  ChainJob job;
  job.make_model = [](const Task& t) {
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

// Serializes every bit of ensemble output that must be reproducible.
std::string fingerprint(const std::vector<TaskResult>& results) {
  std::ostringstream os;
  for (const TaskResult& r : results) {
    os << r.task.index << '/' << r.task.seed << ':';
    for (const auto& m : r.series) {
      os << m.iteration << ',' << m.perimeter << ',' << m.edges << ','
         << m.hetero_edges << ',';
      // hexfloat: compare doubles exactly, not via decimal rounding
      char buf[64];
      std::snprintf(buf, sizeof buf, "%a,%a;", m.perimeter_ratio,
                    m.hetero_fraction);
      os << buf;
    }
    os << '\n';
  }
  return os.str();
}

TEST(Ensemble, BitIdenticalAcrossThreadCounts) {
  const GridSpec spec = small_spec();
  const auto tasks = grid_tasks(spec);
  const ChainJob job = small_job();

  std::string reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const auto results = run_chain_ensemble(pool, tasks, job);
    ASSERT_EQ(results.size(), tasks.size());
    const std::string fp = fingerprint(results);
    if (reference.empty()) {
      reference = fp;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(fp, reference) << "results changed at --threads " << threads;
    }
  }
}

TEST(Ensemble, RepeatedRunsAreIdenticalOnOnePool) {
  const GridSpec spec = small_spec();
  const auto tasks = grid_tasks(spec);
  const ChainJob job = small_job();
  ThreadPool pool(4);
  const std::string a = fingerprint(run_chain_ensemble(pool, tasks, job));
  const std::string b = fingerprint(run_chain_ensemble(pool, tasks, job));
  EXPECT_EQ(a, b);
}

TEST(Ensemble, ResultsArriveInTaskOrderWithSeries) {
  const GridSpec spec = small_spec();
  const auto tasks = grid_tasks(spec);
  ThreadPool pool(3);
  const auto results = run_chain_ensemble(pool, tasks, small_job());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].task.index, i);
    ASSERT_EQ(results[i].series.size(), 3u);  // one per checkpoint
    EXPECT_EQ(results[i].series.back().iteration, 30000u);
    EXPECT_EQ(results[i].steps, 30000u);
    EXPECT_GE(results[i].wall_seconds, 0.0);
  }
}

TEST(Ensemble, OnSampleHookSeesEveryCheckpointOnItsOwnSlot) {
  const GridSpec spec = small_spec();
  const auto tasks = grid_tasks(spec);
  ChainJob job = small_job();
  std::vector<int> hits(tasks.size(), 0);
  job.on_sample = [&](const Task& t, const model::ChainModel& m) {
    EXPECT_EQ(model::separation_chain(m).params().lambda, t.lambda);
    ++hits[t.index];
  };
  ThreadPool pool(4);
  run_chain_ensemble(pool, tasks, job);
  for (const int h : hits) EXPECT_EQ(h, 3);
}

TEST(Ensemble, EquilibriumModeRecordsRequestedSamples) {
  GridSpec spec;
  spec.lambdas = {4.0};
  spec.gammas = {4.0};
  spec.base_seed = 5;
  const auto tasks = grid_tasks(spec);
  ChainJob job;
  job.make_model = [](const Task& t) {
    util::Rng rng(t.seed);
    const auto nodes = lattice::random_blob(20, rng);
    const auto colors = core::balanced_random_colors(20, 2, rng);
    return model::make_separation(
        core::SeparationChain(system::ParticleSystem(nodes, colors),
                              core::Params{t.lambda, t.gamma, true},
                              t.seed));
  };
  job.burn_in = 5000;
  job.interval = 100;
  job.samples = 7;
  ThreadPool pool(2);
  const auto results = run_chain_ensemble(pool, tasks, job);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].series.size(), 7u);
  EXPECT_EQ(results[0].series.front().iteration, 5000u);
  EXPECT_EQ(results[0].steps, 5000u + 6u * 100u);
}

TEST(Ensemble, ResolveProtocolPrefersThePerTaskOverride) {
  ChainJob job = small_job();  // fixed fields: checkpoints {0,10000,30000}
  job.burn_in = 111;
  job.interval = 22;
  job.samples = 3;

  Task t;
  t.index = 2;
  t.lambda = 4.0;

  // No override: the fixed fields come back verbatim.
  const ChainProtocol fixed = resolve_protocol(job, t);
  EXPECT_EQ(fixed.checkpoints, job.checkpoints);
  EXPECT_EQ(fixed.burn_in, 111u);
  EXPECT_EQ(fixed.interval, 22u);
  EXPECT_EQ(fixed.samples, 3u);

  // Override set: it wins outright, and may depend on the task.
  job.protocol = [](const Task& task) {
    ChainProtocol p;
    p.burn_in = 1000 * (task.index + 1);
    p.interval = 50;
    p.samples = 2;
    return p;
  };
  const ChainProtocol per_task = resolve_protocol(job, t);
  EXPECT_TRUE(per_task.checkpoints.empty());
  EXPECT_EQ(per_task.burn_in, 3000u);
  EXPECT_EQ(per_task.interval, 50u);
  EXPECT_EQ(per_task.samples, 2u);
}

TEST(Ensemble, PerTaskProtocolDrivesTheActualRun) {
  // A protocol override that scales burn-in by task index must show up
  // in the measured iteration stamps, proving make_task_fn resolves it.
  const GridSpec spec = small_spec();
  const auto tasks = grid_tasks(spec);
  ChainJob job = small_job();
  job.checkpoints.clear();
  job.protocol = [](const Task& task) {
    ChainProtocol p;
    p.burn_in = 100 + 10 * task.index;
    p.interval = 7;
    p.samples = 2;
    return p;
  };
  ThreadPool pool(2);
  const auto results = run_chain_ensemble(pool, tasks, job);
  for (const TaskResult& r : results) {
    ASSERT_EQ(r.series.size(), 2u);
    EXPECT_EQ(r.series[0].iteration, 100 + 10 * r.task.index);
    EXPECT_EQ(r.series[1].iteration, 107 + 10 * r.task.index);
    EXPECT_EQ(r.steps, 107 + 10 * r.task.index);
  }
}

TEST(Ensemble, TaskExceptionPropagatesLowestIndex) {
  const GridSpec spec = small_spec();
  const auto tasks = grid_tasks(spec);
  ThreadPool pool(4);
  const TaskFn fn = [](const Task& t) -> std::vector<core::Measurement> {
    if (t.index == 2 || t.index == 6) {
      throw std::runtime_error("task " + std::to_string(t.index));
    }
    return {};
  };
  try {
    run_ensemble(pool, tasks, fn);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
}

TEST(ProgressSink, CountsAndWritesOneJsonObjectPerTask) {
  const std::string path = ::testing::TempDir() + "engine_test_telemetry.jsonl";
  std::remove(path.c_str());
  const GridSpec spec = small_spec();
  const auto tasks = grid_tasks(spec);
  {
    ProgressSink sink(path);
    ThreadPool pool(4);
    run_chain_ensemble(pool, tasks, small_job(), &sink);
    EXPECT_EQ(sink.completed(), tasks.size());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::set<std::string> task_keys;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // One complete object per line, even under concurrent writers.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"steps\":30000"), std::string::npos);
    task_keys.insert(line.substr(0, line.find(',')));
  }
  EXPECT_EQ(lines, tasks.size());
  EXPECT_EQ(task_keys.size(), tasks.size());  // every task reported once
  std::remove(path.c_str());
}

TEST(ProgressSink, DisabledSinkStillCounts) {
  ProgressSink sink;
  sink.record({});
  sink.record({});
  EXPECT_EQ(sink.completed(), 2u);
}

TEST(ProgressSink, UnopenablePathThrows) {
  EXPECT_THROW(ProgressSink("/nonexistent-dir/telemetry.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace sops::engine
