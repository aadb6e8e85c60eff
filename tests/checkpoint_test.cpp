#include "src/checkpoint/runner.hpp"
#include "src/checkpoint/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/runner.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/builtin.hpp"
#include "src/model/separation.hpp"
#include "src/shard/harness.hpp"
#include "tests/codec_fixtures.hpp"

namespace sops::checkpoint {
namespace {

// restore_model dispatches through the registry, so the model
// factories must be registered before any test decodes a snapshot.
const bool kModelsRegistered = [] {
  model::ensure_builtin_models();
  return true;
}();

std::string temp_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// Re-checksums a tampered document so grammar-level validation (not the
// integrity check) is what decode exercises. Mirrors the format's FNV-1a.
std::string rechecksum(std::string text) {
  const auto pos = text.rfind("\nchecksum ");
  EXPECT_NE(pos, std::string::npos);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < pos + 1; ++i) {
    h ^= static_cast<unsigned char>(text[i]);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  text.replace(pos + 10, 16, buf);
  return text;
}

using fixtures::sample_snapshot;

// ---- snapshot format ----------------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTripBitExact) {
  const Snapshot a = sample_snapshot();
  const Snapshot b = decode(encode(a));
  EXPECT_EQ(b.job, a.job);
  EXPECT_EQ(b.model, a.model);
  EXPECT_EQ(b.spec_hash, a.spec_hash);
  EXPECT_EQ(b.task_index, a.task_index);
  EXPECT_EQ(b.task_seed, a.task_seed);
  EXPECT_EQ(b.complete, a.complete);
  ASSERT_EQ(b.series.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.series[0].hetero_fraction),
            std::bit_cast<std::uint64_t>(a.series[0].hetero_fraction));
  // The model-state block survives verbatim, line for line.
  EXPECT_EQ(b.state, a.state);
  // And a restored trajectory sees the exact particle configuration.
  const auto restored = restore_model(b);
  const core::SeparationChain& c = model::separation_chain(*restored);
  ASSERT_EQ(c.system().size(), 3u);
  EXPECT_EQ(c.system().positions()[2].x, -3);
  EXPECT_EQ(c.system().positions()[2].y, 2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.params().gamma),
            std::bit_cast<std::uint64_t>(0x1.5555555555555p-2));
  EXPECT_EQ(c.counters().swaps_accepted, 100u);
  // Deterministic serialization: same value, same bytes.
  EXPECT_EQ(encode(a), encode(b));
}

TEST(Snapshot, DecodeRejectsEveryBitFlip) {
  const std::string good = encode(sample_snapshot());
  // Flip one character in a handful of positions spread over the file;
  // each must be caught by the checksum, never silently parsed.
  for (const std::size_t pos : {std::size_t{5}, good.size() / 3,
                                good.size() / 2, good.size() - 3}) {
    std::string bad = good;
    bad[pos] = bad[pos] == 'x' ? 'y' : 'x';
    EXPECT_THROW((void)decode(bad), SnapshotError) << "flip at " << pos;
  }
}

TEST(Snapshot, DecodeRejectsTruncation) {
  // Any truncation that loses content must be refused (a cut that only
  // drops the final newline of "end\n" loses nothing and still parses).
  const std::string good = encode(sample_snapshot());
  for (const std::size_t keep : {good.size() - 2, good.size() / 2}) {
    EXPECT_THROW((void)decode(good.substr(0, keep)), SnapshotError);
  }
  EXPECT_THROW((void)decode(""), SnapshotError);
}

TEST(Snapshot, CorruptionNamesTheChecksum) {
  std::string bad = encode(sample_snapshot());
  bad[bad.size() / 2] ^= 1;
  try {
    (void)decode(bad);
    FAIL() << "decode accepted a corrupt snapshot";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, DecodeRejectsVersionSkew) {
  std::string skewed = encode(sample_snapshot());
  const auto pos = skewed.find(" v2\n");
  ASSERT_NE(pos, std::string::npos);
  skewed.replace(pos, 4, " v9\n");
  try {
    (void)decode(rechecksum(skewed));
    FAIL() << "decode accepted a version-skewed snapshot";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version v9"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, DecodeRejectsAuxOnPartial) {
  Snapshot snap = sample_snapshot();
  snap.complete = true;
  snap.aux = {1.0, 2.0};
  std::string text = encode(snap);
  const auto pos = text.find("status complete");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("status complete").size(), "status partial");
  EXPECT_THROW((void)decode(rechecksum(text)), SnapshotError);
}

TEST(Snapshot, V1DocumentsAreRefusedAsUnsupported) {
  // A pre-seam v1 snapshot (typed params/rng/counters/particles lines
  // instead of a model-state block). Nothing writes v1 any more, so even
  // with a valid checksum it is refused by version.
  const std::string v1 =
      "sops-checkpoint v1\n"
      "job legacy\n"
      "spec 00000000deadbeef\n"
      "task 2 77\n"
      "status partial\n"
      "params 0x1p+2 0x1p-2 1\n"
      "rng 0000000000000001 000000000000002a 0000000000000007 "
      "00000000000000ff\n"
      "counters 500 300 120 20 10 150 200 40\n"
      "series 1\n"
      "m 500 18 33 7 0x1.2p+0 0x0p+0\n"
      "aux 0\n"
      "particles 3\n"
      "p 0 0 0\n"
      "p 1 0 1\n"
      "p -3 2 1\n"
      "checksum 0000000000000000\n"
      "end\n";
  try {
    (void)decode(rechecksum(v1));
    FAIL() << "decoded a v1 snapshot";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unsupported checkpoint version v1 (reader speaks v2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, DeclaredCountsBeyondTheInputAreSnapshotErrors) {
  // A 2^62 series or state count once sized a reserve() and threw
  // std::length_error; both are now checked against the lines left.
  const std::string good = encode(sample_snapshot());
  for (const char* key : {"series 1", "state 7"}) {
    std::string bad = good;
    const std::string k(key);
    bad.replace(bad.find(k), k.size(),
                k.substr(0, k.find(' ') + 1) + "4611686018427387904");
    try {
      (void)decode(rechecksum(bad));
      FAIL() << "decoded a 2^62 count for " << key;
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds the"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Snapshot, RestoreModelRefusesBadConfigurationsByName) {
  // The model's own refusals (a coordinate at the int32 edge, two
  // particles on one node, a 2^62 particle count) reach restore_model's
  // caller as SnapshotError, never as std::invalid_argument or UB.
  for (const char* tag : {"separation", "alignment"}) {
    SCOPED_TRACE(tag);
    Snapshot snap = sample_snapshot();
    snap.model = tag;
    snap.state = model::require_model(tag)
                     .build(std::vector<std::string>{"blob=5"},
                            model::TaskPoint{0, 0, 2.0, 2.0, 3})
                     ->save_state();
    const std::vector<std::string> state = snap.state;
    snap.state.back() = "p 2147483647 0 0";
    EXPECT_THROW((void)restore_model(decode(encode(snap))), SnapshotError);
    snap.state = state;
    snap.state.back() = state[state.size() - 2];
    EXPECT_THROW((void)restore_model(decode(encode(snap))), SnapshotError);
    snap.state = state;
    snap.state[3] = "particles 4611686018427387904";
    EXPECT_THROW((void)restore_model(decode(encode(snap))), SnapshotError);
  }
}

TEST(Snapshot, WriteIsAtomicReadBack) {
  const std::string dir = temp_dir("ckpt_write");
  const std::string path = dir + "/" + task_filename("ckpt_test", 3);
  EXPECT_EQ(task_filename("ckpt_test", 3), "ckpt_test-task000003.sopsckpt");
  const Snapshot a = sample_snapshot();
  write_snapshot(path, a);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const Snapshot b = read_snapshot(path);
  EXPECT_EQ(encode(a), encode(b));
  // Overwrite with new content is equally atomic.
  Snapshot c = a;
  c.complete = true;
  write_snapshot(path, c);
  EXPECT_TRUE(read_snapshot(path).complete);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, ReadNamesThePathOnError) {
  const std::string dir = temp_dir("ckpt_badfile");
  const std::string path = dir + "/x.sopsckpt";
  spit(path, "not a snapshot\n");
  try {
    (void)read_snapshot(path);
    FAIL() << "read_snapshot accepted garbage";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, WriteFailuresNameTheCallAndTheReason) {
  const std::string dir = temp_dir("ckpt_write_fail");
  const std::string missing = dir + "/none/x.sopsckpt";
  try {
    write_snapshot(missing, sample_snapshot());
    FAIL() << "wrote into a directory that does not exist";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("open '" + missing +
                                         ".tmp': No such file or directory"),
              std::string::npos)
        << e.what();
  }
  // A directory in the way of the final name fails the rename, and the
  // temporary file is cleaned up.
  const std::string blocked = dir + "/blocked.sopsckpt";
  std::filesystem::create_directories(blocked + "/inside");
  try {
    write_snapshot(blocked, sample_snapshot());
    FAIL() << "renamed over a non-empty directory";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rename '" + blocked + ".tmp' to '" +
                                         blocked + "': "),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(blocked + ".tmp"));
  std::filesystem::remove_all(dir);
}

// ---- snapshot writer ----------------------------------------------------

// Partial snapshot number `i` of a path: distinct bytes per post, so the
// file on disk says which one was written last.
Snapshot numbered_partial(std::uint64_t i) {
  Snapshot snap = sample_snapshot();
  snap.series.front().iteration = 1000 + i;
  return snap;
}

Snapshot completion_of(const Snapshot& partial) {
  Snapshot snap = partial;
  snap.complete = true;
  snap.aux = {0.5};
  return snap;
}

// Posts `bursts` partials of `path` back to back, then its completion.
// Once the writer has joined (drained what was queued), the file must
// still decode as the completion: no stale partial renames over it.
void burst_then_complete(SnapshotWriter& writer, const std::string& path,
                         std::uint64_t bursts) {
  for (std::uint64_t i = 0; i < bursts; ++i) {
    writer.post(path, numbered_partial(i));
  }
  writer.write(path, completion_of(numbered_partial(bursts)));
}

TEST(SnapshotWriter, CompletionOutlastsABurstOfPartials) {
  const std::string dir = temp_dir("ckpt_writer_burst");
  const std::string path = dir + "/a.sopsckpt";
  SnapshotWriter::Counts counts;
  {
    SnapshotWriter writer;
    burst_then_complete(writer, path, 1000);
    counts = writer.counts();
  }
  EXPECT_EQ(encode(read_snapshot(path)),
            encode(completion_of(numbered_partial(1000))));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(counts.written + counts.superseded, 1001u);
  EXPECT_GE(counts.written, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotWriter, ConcurrentOwnersEachKeepTheirCompletion) {
  const std::string dir = temp_dir("ckpt_writer_owners");
  const auto path = [&](int k) {
    return dir + "/" + task_filename("owners", static_cast<std::uint64_t>(k));
  };
  SnapshotWriter::Counts counts;
  {
    SnapshotWriter writer;
    std::vector<std::thread> owners;
    for (int k = 0; k < 4; ++k) {
      owners.emplace_back(
          [&, k] { burst_then_complete(writer, path(k), 1000); });
    }
    for (std::thread& t : owners) t.join();
    counts = writer.counts();
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(encode(read_snapshot(path(k))),
              encode(completion_of(numbered_partial(1000))))
        << path(k);
  }
  EXPECT_EQ(counts.written + counts.superseded, 4004u);
  std::filesystem::remove_all(dir);
}

// Paths are written in the order they became pending: a path that is
// posted again before each of its writes completes (always pending)
// must not keep another path's one snapshot off the disk, as it would
// if the writer picked pending paths in key order ("a" < "b").
TEST(SnapshotWriter, BusyPathDoesNotStarveAnother) {
  const std::string dir = temp_dir("ckpt_writer_fifo");
  const std::string a = dir + "/a.sopsckpt";
  const std::string b = dir + "/b.sopsckpt";
  // Copying a's 20,000-measurement snapshot takes far less time than
  // encoding and durably writing it, so `a` is pending again whenever
  // the writer picks its next path.
  Snapshot big = numbered_partial(0);
  big.series.assign(20000, big.series.front());
  bool landed = false;
  std::uint64_t posted = 0;
  {
    SnapshotWriter writer;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> posts{0};
    std::thread poster([&] {
      while (!stop.load()) {
        writer.post(a, big);
        posts.fetch_add(1);
      }
    });
    while (posts.load() < 10) std::this_thread::yield();
    writer.post(b, numbered_partial(0));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!(landed = std::filesystem::exists(b)) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
    poster.join();
    posted = posts.load();
  }
  EXPECT_TRUE(landed) << "b's one snapshot did not reach disk in 10 s while "
                         "a was posted "
                      << posted << " times";
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, SpecHashCoversTheWholeJobHeader) {
  shard::JobSpec job;
  job.name = "h";
  job.grid.lambdas = {2.0};
  job.grid.gammas = {3.0};
  job.grid.base_seed = 7;
  job.samples = 4;
  job.tasks = engine::grid_tasks(job.grid);
  const std::uint64_t base = spec_hash(job);

  shard::JobSpec seed = job;
  seed.grid.base_seed = 8;
  seed.tasks = engine::grid_tasks(seed.grid);
  EXPECT_NE(spec_hash(seed), base);

  shard::JobSpec proto = job;
  proto.samples = 5;
  EXPECT_NE(spec_hash(proto), base);

  shard::JobSpec params = job;
  params.params = {"extra=1"};
  EXPECT_NE(spec_hash(params), base);

  // The model tag is part of the job's identity: the same grid run
  // under another model family hashes differently, so its snapshots
  // can never be silently adopted.
  shard::JobSpec modeled = job;
  modeled.model = "alignment";
  EXPECT_NE(spec_hash(modeled), base);

  EXPECT_EQ(spec_hash(job), base);  // and it is a pure function
}

TEST(Snapshot, RestoreModelRejectsDeadStates) {
  // A completion snapshot carries no state; restoring it is an error
  // with a message that says so, not a crash.
  Snapshot stateless = sample_snapshot();
  stateless.complete = true;
  stateless.state.clear();
  try {
    (void)restore_model(stateless);
    FAIL() << "restored a stateless snapshot";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("no model state"), std::string::npos)
        << e.what();
  }
  // A tag nobody registered is refused by name, with the registry listed.
  Snapshot foreign = sample_snapshot();
  foreign.model = "not-a-model";
  try {
    (void)restore_model(foreign);
    FAIL() << "restored a snapshot with an unregistered model tag";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("'not-a-model' not registered"),
              std::string::npos)
        << e.what();
  }
  // A state block the model's own parser rejects surfaces the model's
  // message, wrapped as a checkpoint error.
  Snapshot mangled = sample_snapshot();
  mangled.state[0] = "params 4 nope 1";
  EXPECT_THROW((void)restore_model(mangled), SnapshotError);
}

// ---- checkpointed runner ------------------------------------------------

// A tiny two-task chain sweep (λ sweep at fixed γ) with real dynamics:
// 24 particles, equilibrium protocol. Small enough that every test runs
// it several times over.
struct Fixture {
  shard::JobSpec job;
  engine::ChainJob chain;

  Fixture() {
    chain.make_model = [](const engine::Task& t) {
      util::Rng rng(t.seed);
      const auto nodes = lattice::random_blob(24, rng);
      const auto colors = core::balanced_random_colors(24, 2, rng);
      return model::make_separation(
          core::SeparationChain(system::ParticleSystem(nodes, colors),
                                core::Params{t.lambda, t.gamma, true},
                                t.seed));
    };
    chain.burn_in = 600;
    chain.interval = 150;
    chain.samples = 4;

    job.name = "ckpt_run";
    job.grid.lambdas = {2.0, 4.0};
    job.grid.gammas = {3.0};
    job.grid.base_seed = 11;
    job.burn_in = chain.burn_in;
    job.interval = chain.interval;
    job.samples = chain.samples;
    job.tasks = engine::grid_tasks(job.grid);
  }
};

void expect_same_results(std::span<const engine::TaskResult> a,
                         std::span<const engine::TaskResult> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].series.size(), b[i].series.size()) << "task " << i;
    for (std::size_t s = 0; s < a[i].series.size(); ++s) {
      const core::Measurement& ma = a[i].series[s];
      const core::Measurement& mb = b[i].series[s];
      EXPECT_EQ(ma.iteration, mb.iteration) << "task " << i << " sample " << s;
      EXPECT_EQ(ma.perimeter, mb.perimeter) << "task " << i << " sample " << s;
      EXPECT_EQ(ma.edges, mb.edges) << "task " << i << " sample " << s;
      EXPECT_EQ(ma.hetero_edges, mb.hetero_edges)
          << "task " << i << " sample " << s;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.perimeter_ratio),
                std::bit_cast<std::uint64_t>(mb.perimeter_ratio));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.hetero_fraction),
                std::bit_cast<std::uint64_t>(mb.hetero_fraction));
    }
    EXPECT_EQ(a[i].aux, b[i].aux) << "task " << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << "task " << i;
  }
}

// Snapshots a fresh run takes: one at each pause of a task's walk (a
// multiple of `every` strictly inside a segment) and one at completion.
std::size_t snapshots_taken(const engine::ChainJob& chain,
                            std::span<const engine::Task> tasks,
                            std::uint64_t every) {
  std::size_t n = tasks.size();
  if (every == 0) return n;
  for (const engine::Task& t : tasks) {
    std::uint64_t from = 0;
    for (const model::Target& target : engine::protocol_targets(chain, t)) {
      if (target.at > from) n += (target.at - 1) / every - from / every;
      from = target.at;
    }
  }
  return n;
}

TEST(Runner, FreshCheckpointedRunMatchesPlainRun) {
  const Fixture two;
  Fixture four;  // one task per worker of the 4-worker pool
  four.job.grid.gammas = {3.0, 1.0};
  four.job.tasks = engine::grid_tasks(four.job.grid);
  engine::ThreadPool pool2(2);
  engine::ThreadPool pool4(4);

  // Snapshot periods that land inside segments, on segment boundaries,
  // and far past the whole run — none may perturb the trajectory. The
  // 4-worker run has four tasks posting to one writer at once.
  struct Case {
    const Fixture& fx;
    engine::ThreadPool& pool;
    std::uint64_t every;
  };
  for (const Case& c : {Case{two, pool2, 0}, Case{two, pool2, 97},
                        Case{two, pool2, 150}, Case{two, pool2, 100000},
                        Case{four, pool4, 7}}) {
    const Fixture& fx = c.fx;
    SCOPED_TRACE("workers=" + std::to_string(c.pool.size()) +
                 " every=" + std::to_string(c.every));
    const auto plain =
        engine::run_chain_ensemble(c.pool, fx.job.tasks, fx.chain);
    const std::string dir = temp_dir("ckpt_fresh");
    const Policy policy{dir, c.every, false};
    RunStats stats;
    const auto checked =
        run_tasks(c.pool, fx.job.tasks, fx.job, &fx.chain, {}, policy, nullptr,
                  {}, &stats);
    expect_same_results(plain, checked);
    EXPECT_EQ(stats.fresh, fx.job.tasks.size());
    // Every snapshot taken is either written or superseded, and every
    // task leaves its completion snapshot behind.
    EXPECT_EQ(stats.written + stats.superseded,
              snapshots_taken(fx.chain, fx.job.tasks, c.every));
    EXPECT_GE(stats.written, fx.job.tasks.size());
    for (const engine::Task& t : fx.job.tasks) {
      const std::string path = dir + "/" + task_filename(fx.job.name, t.index);
      ASSERT_TRUE(std::filesystem::exists(path)) << path;
      EXPECT_TRUE(read_snapshot(path).complete) << path;
    }
    std::filesystem::remove_all(dir);
  }
}

// The first background write into a directory that does not exist
// fails; the failure reaches run_tasks' caller naming the file and the
// reason, at any pool size, without a hang or std::terminate.
TEST(Runner, SnapshotWriteFailureReachesTheCaller) {
  const Fixture fx;
  const std::string parent = temp_dir("ckpt_unwritable");
  const std::string dir = parent + "/missing";
  const Policy policy{dir, 97, false};
  const std::string tmp =
      dir + "/" + task_filename(fx.job.name, fx.job.tasks[0].index) + ".tmp";
  for (const unsigned workers : {1u, 2u}) {
    engine::ThreadPool pool(workers);
    try {
      (void)run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {}, policy);
      FAIL() << "run_tasks returned with an unwritable snapshot directory";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(tmp), std::string::npos) << what;
      EXPECT_NE(what.find("No such file or directory"), std::string::npos)
          << what;
    }
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  std::filesystem::remove_all(parent);
}

TEST(Runner, ResumeSkipsCompletedTasks) {
  const Fixture fx;
  engine::ThreadPool pool(2);
  const std::string dir = temp_dir("ckpt_skip");
  const Policy policy{dir, 0, true};
  RunStats first, second;
  const auto a = run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {}, policy,
                           nullptr, {}, &first);
  const auto b = run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {}, policy,
                           nullptr, {}, &second);
  expect_same_results(a, b);
  EXPECT_EQ(first.fresh, fx.job.tasks.size());
  EXPECT_EQ(second.skipped, fx.job.tasks.size());
  EXPECT_EQ(second.fresh, 0u);
  std::filesystem::remove_all(dir);
}

// The acceptance bar: interrupt a chain mid-segment (a partial snapshot
// at a step count that is NOT a measurement point), resume from the
// file alone, and get byte-for-byte the uninterrupted trajectory.
TEST(Runner, MidTaskResumeIsByteIdenticalToUninterrupted) {
  const Fixture fx;
  engine::ThreadPool pool(1);
  const auto plain = engine::run_chain_ensemble(pool, fx.job.tasks, fx.chain);

  const std::string dir = temp_dir("ckpt_resume");
  const std::uint64_t hash = spec_hash(fx.job);
  // Simulate the kill: drive task 1 to just past its second sample
  // (burn_in + interval = 750), then 100 more steps into the third
  // segment, and snapshot there — exactly what the runner's periodic
  // snapshot would have left behind.
  {
    const engine::Task& t = fx.job.tasks[1];
    const auto m = fx.chain.make_model(t);
    m->run(600);
    std::vector<core::Measurement> series{m->measure()};
    m->run(150);
    series.push_back(m->measure());
    m->run(100);  // mid-segment: 850 steps, next target at 900
    write_snapshot(dir + "/" + task_filename(fx.job.name, t.index),
                   capture(*m, fx.job.name, hash, t, false, series));
  }

  const Policy policy{dir, 97, true};
  RunStats stats;
  const auto resumed = run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {},
                                 policy, nullptr, {}, &stats);
  expect_same_results(plain, resumed);
  EXPECT_EQ(stats.resumed, 1u);
  EXPECT_EQ(stats.fresh, fx.job.tasks.size() - 1);
  std::filesystem::remove_all(dir);
}

TEST(Runner, ResumeRejectsForeignSnapshots) {
  const Fixture fx;
  engine::ThreadPool pool(1);
  const std::string dir = temp_dir("ckpt_foreign");
  const std::uint64_t hash = spec_hash(fx.job);
  const engine::Task& t = fx.job.tasks[0];
  const std::string path = dir + "/" + task_filename(fx.job.name, t.index);

  const auto expect_reject = [&](const Snapshot& snap, const char* needle) {
    write_snapshot(path, snap);
    const Policy policy{dir, 0, true};
    try {
      (void)run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {}, policy);
      FAIL() << "resume accepted a foreign snapshot (" << needle << ")";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  const auto m = fx.chain.make_model(t);
  m->run(100);

  Snapshot wrong_hash = capture(*m, fx.job.name, hash ^ 1, t, false, {});
  expect_reject(wrong_hash, "spec hash mismatch");

  engine::Task drifted = t;
  drifted.seed ^= 0x5a5a;
  Snapshot wrong_seed = capture(*m, fx.job.name, hash, drifted, false, {});
  expect_reject(wrong_seed, "task seed mismatch");

  Snapshot wrong_job = capture(*m, "other_job", hash, t, false, {});
  expect_reject(wrong_job, "job name mismatch");

  // A partial snapshot whose series disagrees with its step count:
  // 100 steps is before the first target (600), so one recorded
  // measurement is one too many.
  Snapshot bad_series =
      capture(*m, fx.job.name, hash, t, false, {m->measure()});
  expect_reject(bad_series, "series length");

  std::filesystem::remove_all(dir);
}

// The cross-model refusal the registry must enforce: a separation
// snapshot offered to a job that names another model family is rejected
// by tag — named, synchronous, and checked before the spec hash, so the
// error says "model mismatch" rather than the less specific hash line.
TEST(Runner, ResumeRejectsSnapshotFromAnotherModel) {
  const Fixture fx;
  engine::ThreadPool pool(1);
  const std::string dir = temp_dir("ckpt_xmodel");
  const engine::Task& t = fx.job.tasks[0];
  const auto m = fx.chain.make_model(t);
  m->run(100);
  write_snapshot(dir + "/" + task_filename(fx.job.name, t.index),
                 capture(*m, fx.job.name, spec_hash(fx.job), t, false, {}));

  shard::JobSpec alignment_job = fx.job;
  alignment_job.model = "alignment";
  const Policy policy{dir, 0, true};
  try {
    (void)run_tasks(pool, alignment_job.tasks, alignment_job, &fx.chain, {},
                    policy);
    FAIL() << "resumed a separation snapshot into an alignment job";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "model mismatch (snapshot 'separation', running "
                  "'alignment')"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(Runner, ResumeRejectsCorruptSnapshotFile) {
  const Fixture fx;
  engine::ThreadPool pool(1);
  const std::string dir = temp_dir("ckpt_corrupt");
  const std::string path =
      dir + "/" + task_filename(fx.job.name, fx.job.tasks[0].index);
  const engine::Task& t = fx.job.tasks[0];
  const auto m = fx.chain.make_model(t);
  write_snapshot(path,
                 capture(*m, fx.job.name, spec_hash(fx.job), t, false, {}));
  std::string text = slurp(path);
  text[text.size() / 2] ^= 1;
  spit(path, text);
  const Policy policy{dir, 0, true};
  EXPECT_THROW((void)run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {},
                               policy),
               SnapshotError);
  std::filesystem::remove_all(dir);
}

TEST(Runner, FnTasksSkipViaCompletionSnapshotsWithAux) {
  shard::JobSpec job;
  job.name = "ckpt_fn";
  job.grid.lambdas = {1.0, 2.0, 3.0};
  job.grid.gammas = {1.0};
  job.grid.base_seed = 5;
  job.tasks = engine::grid_tasks(job.grid);

  const engine::TaskFn fn = [](const engine::Task& t) {
    core::Measurement m;
    m.iteration = 10 + t.index;
    m.perimeter_ratio = t.lambda * 1.5;
    return std::vector<core::Measurement>{m};
  };
  const shard::AuxFn aux = [](const engine::TaskResult& r) {
    return std::vector<double>{static_cast<double>(r.task.index) + 0.25};
  };

  engine::ThreadPool pool(2);
  const std::string dir = temp_dir("ckpt_fn");
  const Policy policy{dir, 0, true};
  RunStats first, second;
  const auto a =
      run_tasks(pool, job.tasks, job, nullptr, fn, policy, nullptr, aux, &first);
  const auto b =
      run_tasks(pool, job.tasks, job, nullptr, fn, policy, nullptr, aux, &second);
  EXPECT_EQ(first.fresh, 3u);
  EXPECT_EQ(second.skipped, 3u);
  expect_same_results(a, b);
  ASSERT_EQ(b[2].aux.size(), 1u);
  EXPECT_EQ(b[2].aux[0], 2.25);  // aux came off the snapshot, not a rerun
  std::filesystem::remove_all(dir);
}

// samples == 0 lowers to one unrecorded target, the bare burn-in: a
// partial snapshot written inside it resumes to the uninterrupted
// result, and one past it is refused.
TEST(Runner, BareBurnInResumesMidBurnIn) {
  Fixture fx;
  fx.chain.samples = 0;
  fx.job.samples = 0;
  engine::ThreadPool pool(1);
  const auto plain = engine::run_chain_ensemble(pool, fx.job.tasks, fx.chain);

  const std::string dir = temp_dir("ckpt_burn_in");
  const std::uint64_t hash = spec_hash(fx.job);
  const engine::Task& t = fx.job.tasks[0];
  const std::string path = dir + "/" + task_filename(fx.job.name, t.index);
  const auto m = fx.chain.make_model(t);
  m->run(250);  // inside the 600-step burn-in
  write_snapshot(path, capture(*m, fx.job.name, hash, t, false, {}));

  const Policy policy{dir, 97, true};
  RunStats stats;
  const auto resumed = run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {},
                                 policy, nullptr, {}, &stats);
  expect_same_results(plain, resumed);
  EXPECT_EQ(stats.resumed, 1u);
  EXPECT_EQ(stats.fresh, fx.job.tasks.size() - 1);

  m->run(450);  // 700 steps: past the burn-in
  write_snapshot(path, capture(*m, fx.job.name, hash, t, false, {}));
  try {
    (void)run_tasks(pool, fx.job.tasks, fx.job, &fx.chain, {}, policy);
    FAIL() << "resumed a snapshot past the protocol's end";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("past the protocol's end 600"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(Runner, CheckpointListProtocolResumes) {
  // The explicit-checkpoint protocol (absolute iteration list) must
  // resume exactly like the equilibrium one.
  shard::JobSpec job;
  job.name = "ckpt_list";
  job.grid.lambdas = {4.0};
  job.grid.gammas = {2.0};
  job.grid.base_seed = 23;
  job.checkpoints = {0, 200, 200, 500};  // duplicate target is legal
  job.tasks = engine::grid_tasks(job.grid);

  engine::ChainJob chain;
  chain.make_model = [](const engine::Task& t) {
    util::Rng rng(t.seed);
    const auto nodes = lattice::random_blob(16, rng);
    const auto colors = core::balanced_random_colors(16, 2, rng);
    return model::make_separation(
        core::SeparationChain(system::ParticleSystem(nodes, colors),
                              core::Params{t.lambda, t.gamma, true}, t.seed));
  };
  chain.checkpoints = job.checkpoints;

  engine::ThreadPool pool(1);
  const auto plain = engine::run_chain_ensemble(pool, job.tasks, chain);

  const std::string dir = temp_dir("ckpt_list");
  const std::uint64_t hash = spec_hash(job);
  {
    const engine::Task& t = job.tasks[0];
    const auto m = chain.make_model(t);
    std::vector<core::Measurement> series{m->measure()};  // target 0
    m->run(200);
    series.push_back(m->measure());  // target 200
    series.push_back(m->measure());  // duplicate target 200
    m->run(150);                     // 350 steps: inside [200, 500)
    write_snapshot(dir + "/" + task_filename(job.name, t.index),
                   capture(*m, job.name, hash, t, false, series));
  }
  const Policy policy{dir, 0, true};
  RunStats stats;
  const auto resumed =
      run_tasks(pool, job.tasks, job, &chain, {}, policy, nullptr, {}, &stats);
  expect_same_results(plain, resumed);
  EXPECT_EQ(stats.resumed, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sops::checkpoint
