// Tests for the model seam (src/model): the registry contract every
// generic layer depends on, the separation model's parity with driving
// core::SeparationChain directly, the generic drivers, and the
// save_state/restore round-trip that checkpointing rides on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/core/runner.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/builtin.hpp"
#include "src/model/registry.hpp"
#include "src/model/separation.hpp"
#include "src/util/rng.hpp"

namespace sops {
namespace {

const bool kModelsRegistered = [] {
  model::ensure_builtin_models();
  return true;
}();

core::SeparationChain make_chain(std::size_t n, std::uint64_t seed,
                                 double lambda = 4.0, double gamma = 4.0) {
  util::Rng rng(seed);
  auto nodes = lattice::random_blob(n, rng);
  auto colors = core::balanced_random_colors(n, 2, rng);
  return core::SeparationChain(system::ParticleSystem(nodes, colors),
                               core::Params{lambda, gamma, true}, seed);
}

// ---- registry --------------------------------------------------------

TEST(Registry, BuiltinTagsAreRegisteredAndSorted) {
  ASSERT_TRUE(kModelsRegistered);
  const auto tags = model::registered_models();
  EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()));
  for (const char* tag : {"separation", "alignment", "ising", "schelling"}) {
    EXPECT_NE(model::find_model(tag), nullptr) << tag;
    EXPECT_NE(std::find(tags.begin(), tags.end(), tag), tags.end()) << tag;
  }
}

TEST(Registry, UnknownTagIsANamedError) {
  EXPECT_EQ(model::find_model("voter"), nullptr);
  try {
    (void)model::require_model("voter");
    FAIL() << "require_model accepted an unknown tag";
  } catch (const model::ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("model 'voter' not registered"), std::string::npos)
        << what;
    EXPECT_NE(what.find("separation"), std::string::npos) << what;
  }
}

TEST(Registry, FirstRegistrationWinsAndReRegistrationIsIdempotent) {
  model::Factory probe;
  probe.tag = "model-test-probe";
  probe.build = [](std::span<const std::string>, const model::TaskPoint&)
      -> std::unique_ptr<model::ChainModel> {
    throw model::ModelError("probe build #1");
  };
  probe.restore = [](std::span<const std::string>)
      -> std::unique_ptr<model::ChainModel> {
    throw model::ModelError("probe restore");
  };
  model::register_model(probe);

  model::Factory usurper = probe;
  usurper.build = [](std::span<const std::string>, const model::TaskPoint&)
      -> std::unique_ptr<model::ChainModel> {
    throw model::ModelError("probe build #2");
  };
  model::register_model(usurper);  // silently ignored: first wins

  const model::Factory* found = model::find_model("model-test-probe");
  ASSERT_NE(found, nullptr);
  try {
    (void)found->build({}, model::TaskPoint{});
    FAIL() << "probe build did not throw";
  } catch (const model::ModelError& e) {
    EXPECT_STREQ(e.what(), "probe build #1");
  }
}

TEST(Registry, MalformedFactoriesAreRejected) {
  model::Factory empty_tag;
  empty_tag.tag = "";
  empty_tag.build = [](std::span<const std::string>, const model::TaskPoint&)
      -> std::unique_ptr<model::ChainModel> { return nullptr; };
  empty_tag.restore = [](std::span<const std::string>)
      -> std::unique_ptr<model::ChainModel> { return nullptr; };
  EXPECT_THROW(model::register_model(empty_tag), model::ModelError);

  model::Factory no_restore;
  no_restore.tag = "model-test-no-restore";
  no_restore.build = empty_tag.build;
  EXPECT_THROW(model::register_model(no_restore), model::ModelError);
}

TEST(Registry, BuildFromSpecMatchesTheFactoryDirectly) {
  const std::vector<std::string> params{"blob=30"};
  const model::TaskPoint point{3, 0, 4.0, 2.0, 12345};
  auto via_spec = model::build_from_spec("separation", params, point);
  auto via_factory =
      model::require_model("separation").build(params, point);
  via_spec->run(5000);
  via_factory->run(5000);
  EXPECT_EQ(via_spec->save_state(), via_factory->save_state());
}

// ---- separation model: parity with the bare core chain ---------------

TEST(SeparationModel, RunAndMeasureMatchTheBareChain) {
  core::SeparationChain bare = make_chain(40, 99);
  auto wrapped = model::make_separation(make_chain(40, 99));

  EXPECT_EQ(wrapped->tag(), "separation");
  bare.run(20000);
  wrapped->run(20000);
  EXPECT_EQ(wrapped->steps(), bare.counters().steps);

  const core::Measurement a = core::measure(bare);
  const core::Measurement b = wrapped->measure();
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(a.perimeter, b.perimeter);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.hetero_edges, b.hetero_edges);
  EXPECT_EQ(a.perimeter_ratio, b.perimeter_ratio);
  EXPECT_EQ(a.hetero_fraction, b.hetero_fraction);
}

TEST(SeparationModel, SplitRunsEqualOneLongRun) {
  auto split = model::make_separation(make_chain(30, 7));
  auto whole = model::make_separation(make_chain(30, 7));
  split->run(12000);
  split->run(8000);
  whole->run(20000);
  EXPECT_EQ(split->save_state(), whole->save_state());
}

TEST(SeparationModel, SaveRestoreContinuesByteIdentically) {
  auto original = model::make_separation(make_chain(25, 4242, 3.0, 5.0));
  original->run(30000);

  auto restored =
      model::require_model("separation").restore(original->save_state());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->steps(), original->steps());

  original->run(30000);
  restored->run(30000);
  EXPECT_EQ(restored->save_state(), original->save_state());

  const core::SeparationChain& chain = model::separation_chain(*restored);
  EXPECT_EQ(chain.params().lambda, 3.0);
  EXPECT_EQ(chain.params().gamma, 5.0);
}

TEST(SeparationModel, ObservableNamesMatchTheMeasurementLayout) {
  auto m = model::make_separation(make_chain(10, 1));
  const auto names = m->observable_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "iteration");
  EXPECT_EQ(names[4], "perimeter_ratio");
}

TEST(SeparationModel, FactoryRefusesBadParamsByName) {
  const model::TaskPoint point{0, 0, 4.0, 4.0, 1};
  const auto& factory = model::require_model("separation");
  try {
    (void)factory.build(std::vector<std::string>{"colors=2"}, point);
    FAIL() << "missing blob accepted";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("missing required 'blob='"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)factory.build(std::vector<std::string>{"blob=20", "spin=3"}, point);
    FAIL() << "unknown key accepted";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'spin'"),
              std::string::npos)
        << e.what();
  }
}

// ---- generic drivers -------------------------------------------------
//
// The one set of measurement drivers every ChainJob worker runs. Their
// series must equal the core loop — serial step() to each target, then
// core::measure — and leave the trajectory where stepping leaves it.
// The RunnerTest and StepPipeline cases first tested the core:: copies
// of these drivers, since deleted; they keep their suite names so the
// test ids carry over.

// The core loop: step a bare chain to each target and measure it there.
std::vector<core::Measurement> core_loop(
    core::SeparationChain& chain, std::span<const std::uint64_t> targets) {
  std::vector<core::Measurement> out;
  for (const std::uint64_t target : targets) {
    while (chain.counters().steps < target) chain.step();
    out.push_back(core::measure(chain));
  }
  return out;
}

void expect_same_series(const std::vector<core::Measurement>& got,
                        const std::vector<core::Measurement>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].iteration, want[i].iteration) << "point " << i;
    EXPECT_EQ(got[i].perimeter, want[i].perimeter) << "point " << i;
    EXPECT_EQ(got[i].edges, want[i].edges) << "point " << i;
    EXPECT_EQ(got[i].hetero_edges, want[i].hetero_edges) << "point " << i;
    EXPECT_EQ(got[i].perimeter_ratio, want[i].perimeter_ratio)
        << "point " << i;
    EXPECT_EQ(got[i].hetero_fraction, want[i].hetero_fraction)
        << "point " << i;
  }
}

// Configuration, counters and RNG state all match the stepped twin.
void expect_same_trajectory(const model::ChainModel& driven,
                            core::SeparationChain stepped) {
  EXPECT_EQ(driven.save_state(),
            model::make_separation(std::move(stepped))->save_state());
}

TEST(Drivers, RunWithCheckpointsMatchesTheCoreLoop) {
  // A leading 0 records the initial state; 1003 ends mid-block; the
  // repeated 5000 measures twice without stepping.
  const std::vector<std::uint64_t> checkpoints{0, 100, 1003, 5000, 5000,
                                               20000};
  auto wrapped = model::make_separation(make_chain(35, 11));
  std::vector<std::uint64_t> seen;
  const auto series = model::run_with_checkpoints(
      *wrapped, checkpoints,
      [&](const model::ChainModel& m, std::uint64_t at) {
        EXPECT_EQ(m.steps(), at);
        seen.push_back(at);
      });

  core::SeparationChain serial = make_chain(35, 11);
  expect_same_series(series, core_loop(serial, checkpoints));
  EXPECT_EQ(seen, checkpoints);
  EXPECT_EQ(wrapped->steps(), 20000u);
  expect_same_trajectory(*wrapped, std::move(serial));
}

TEST(Drivers, RunWithCheckpointsRejectsDecreasingTargets) {
  auto m = model::make_separation(make_chain(10, 2));
  const std::vector<std::uint64_t> bad{100, 50};
  EXPECT_THROW((void)model::run_with_checkpoints(*m, bad),
               std::invalid_argument);
}

TEST(Drivers, SampleEquilibriumMatchesTheCoreLoop) {
  auto wrapped = model::make_separation(make_chain(30, 17));
  std::size_t samples_seen = 0;
  const auto series = model::sample_equilibrium(
      *wrapped, 10000, 2000, 5,
      [&](const model::ChainModel&) { ++samples_seen; });

  // The first sample lands AT burn-in, then one every interval.
  const std::vector<std::uint64_t> at{10000, 12000, 14000, 16000, 18000};
  core::SeparationChain serial = make_chain(30, 17);
  expect_same_series(series, core_loop(serial, at));
  EXPECT_EQ(samples_seen, 5u);
  expect_same_trajectory(*wrapped, std::move(serial));
}

// bench_baselines' shape: a model that already ran samples at
// equilibrium with its burn-in counted from where it stands, not from
// step 0.
TEST(Drivers, SampleEquilibriumCountsBurnInFromTheCurrentStep) {
  auto wrapped = model::make_separation(make_chain(30, 19));
  wrapped->run(3000);
  const auto series = model::sample_equilibrium(*wrapped, 1000, 500, 3);
  const auto tail = model::sample_equilibrium(*wrapped, 0, 700, 2);

  const std::vector<std::uint64_t> at{4000, 4500, 5000, 5000, 5700};
  core::SeparationChain serial = make_chain(30, 19);
  const auto want = core_loop(serial, at);
  expect_same_series(series, {want.begin(), want.begin() + 3});
  expect_same_series(tail, {want.begin() + 3, want.end()});
  expect_same_trajectory(*wrapped, std::move(serial));
}

// samples == 0 is a bare burn-in: the steps run, nothing is recorded.
TEST(Drivers, SampleEquilibriumWithoutSamplesOnlyBurnsIn) {
  auto m = model::make_separation(make_chain(20, 23));
  std::size_t hooks = 0;
  const auto series = model::sample_equilibrium(
      *m, 500, 100, 0, [&](const model::ChainModel&) { ++hooks; });
  EXPECT_TRUE(series.empty());
  EXPECT_EQ(hooks, 0u);
  core::SeparationChain serial = make_chain(20, 23);
  (void)core_loop(serial, std::vector<std::uint64_t>{500});
  expect_same_trajectory(*m, std::move(serial));
}

TEST(RunnerTest, CheckpointsLandExactly) {
  auto m = model::make_separation(make_chain(30, 3));
  const std::vector<std::uint64_t> checkpoints{0, 100, 5000, 5000, 20000};
  const auto history = model::run_with_checkpoints(*m, checkpoints);
  ASSERT_EQ(history.size(), checkpoints.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].iteration, checkpoints[i]);
  }
  EXPECT_EQ(m->steps(), 20000u);
}

// Nondecreasing, not strictly increasing: a repeated target passes, a
// step back is refused, and the chain stays at the last target reached.
TEST(RunnerTest, RejectsDecreasingCheckpoints) {
  auto m = model::make_separation(make_chain(10, 4));
  const std::vector<std::uint64_t> bad{0, 100, 100, 99};
  EXPECT_THROW((void)model::run_with_checkpoints(*m, bad),
               std::invalid_argument);
  EXPECT_EQ(m->steps(), 100u);
}

TEST(RunnerTest, EquilibriumSamplingCountsAndSpacing) {
  auto m = model::make_separation(make_chain(20, 5));
  const auto samples = model::sample_equilibrium(*m, 1000, 500, 5);
  ASSERT_EQ(samples.size(), 5u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].iteration, 1000u + i * 500u);
  }
  EXPECT_EQ(m->steps(), 1000u + 4 * 500u);
}

// chain_run_test's 120-particle separation setting, driven through one
// model whose chain keeps its arena across every checkpoint segment.
TEST(StepPipeline, RunnerDriversMatchStepwiseMeasurements) {
  const std::vector<std::uint64_t> checkpoints{0, 1000, 1003, 20000};
  auto wrapped = model::make_separation(make_chain(120, 11));
  const auto series = model::run_with_checkpoints(*wrapped, checkpoints);
  core::SeparationChain serial = make_chain(120, 11);
  expect_same_series(series, core_loop(serial, checkpoints));
  expect_same_trajectory(*wrapped, std::move(serial));
}

// ---- cross-model save/restore round-trips via the registry -----------

TEST(BuiltinModels, EveryFactoryRoundTripsThroughSaveState) {
  struct Case {
    const char* tag;
    std::vector<std::string> params;
    double gamma;  // schelling reads tolerance off γ and wants [0, 1]
  };
  const std::vector<Case> cases{
      {"separation", {"blob=20"}, 2.0},
      {"alignment", {"blob=20"}, 2.0},
      {"ising", {"radius=3"}, 2.0},
      {"schelling", {"radius=3", "vacancy=0.2"}, 0.5},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.tag);
    const auto& factory = model::require_model(c.tag);
    auto m = factory.build(c.params, model::TaskPoint{0, 0, 2.0, c.gamma, 31});
    m->run(5000);
    auto back = factory.restore(m->save_state());
    m->run(5000);
    back->run(5000);
    EXPECT_EQ(back->save_state(), m->save_state());
    EXPECT_EQ(back->tag(), c.tag);
  }
}

TEST(SeparationModel, DowncastRefusesOtherModels) {
  auto alignment = model::build_from_spec(
      "alignment", std::vector<std::string>{"blob=10"},
      model::TaskPoint{0, 0, 2.0, 2.0, 5});
  EXPECT_THROW((void)model::separation_chain(*alignment), model::ModelError);
}

// ---- restore refuses bad configurations by name ----------------------

TEST(BuiltinModels, RestoreRefusesOverflowingCoordinatesByName) {
  // A particle at the int32 edge would overflow the lattice's neighbor
  // arithmetic while the particle system is built; restore refuses it.
  for (const char* tag : {"separation", "alignment"}) {
    SCOPED_TRACE(tag);
    const auto& factory = model::require_model(tag);
    auto state = factory.build(std::vector<std::string>{"blob=6"},
                               model::TaskPoint{0, 0, 2.0, 2.0, 5})
                     ->save_state();
    for (const char* edge : {"p 2147483647 0 0", "p 0 -2147483648 0",
                             "p 1073741824 0 0"}) {
      state.back() = edge;
      try {
        (void)factory.restore(state);
        FAIL() << "restored " << edge;
      } catch (const model::ModelError& e) {
        EXPECT_NE(std::string(e.what()).find("beyond +-2^30"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(BuiltinModels, RestoreRefusesDuplicateNodesByName) {
  for (const char* tag : {"separation", "alignment"}) {
    SCOPED_TRACE(tag);
    const auto& factory = model::require_model(tag);
    auto state = factory.build(std::vector<std::string>{"blob=6"},
                               model::TaskPoint{0, 0, 2.0, 2.0, 5})
                     ->save_state();
    state.back() = state[state.size() - 2];  // two particles on one node
    try {
      (void)factory.restore(state);
      FAIL() << "restored a duplicate node";
    } catch (const model::ModelError& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate node"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BuiltinModels, RestoreRefusesCountsBeyondTheBlock) {
  // A declared particle count larger than the lines that follow is a
  // named error before anything is allocated for it.
  const auto& factory = model::require_model("separation");
  auto state = factory.build(std::vector<std::string>{"blob=6"},
                             model::TaskPoint{0, 0, 2.0, 2.0, 5})
                   ->save_state();
  state[3] = "particles 4611686018427387904";
  try {
    (void)factory.restore(state);
    FAIL() << "restored a 2^62 particle count";
  } catch (const model::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the 6 lines left"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sops
