// Service layer tests: v3 frame codec (round-trips and strict
// negative paths), the job registry's refusal surface, the engine's
// cancel token, and an end-to-end in-process server exercising submit/
// status/result/cancel/overload/shutdown over a real AF_UNIX socket,
// including clients that sit idle or stop reading while others are
// served.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/ensemble.hpp"
#include "src/engine/thread_pool.hpp"
#include "src/model/builtin.hpp"
#include "src/service/client.hpp"
#include "src/service/jobs.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/service/socket.hpp"
#include "src/shard/harness.hpp"
#include "src/shard/wire.hpp"
#include "tests/codec_fixtures.hpp"

namespace {

using namespace sops;

// The registry-backed recipes dispatch on JobSpec::model, so the
// builtin factories must be registered before any program is built.
const bool kModelsRegistered = [] {
  model::ensure_builtin_models();
  return true;
}();

/// A tiny but real service_sweep job: `tasks` replicas of a
/// `blob`-particle chain run to one checkpoint.
shard::JobSpec small_job(std::size_t tasks, std::uint64_t blob,
                         std::uint64_t iters, std::uint64_t seed = 7) {
  engine::GridSpec grid;
  grid.lambdas = {2.5};
  grid.gammas = {3.0};
  grid.replicas = tasks;
  grid.base_seed = seed;
  engine::ChainJob protocol;
  protocol.checkpoints = {iters};
  return shard::grid_job("service_sweep", grid, protocol,
                         {"blob=" + std::to_string(blob), "colors=2",
                          "swaps=1"});
}

/// Unique per-test socket path, relative so it stays under the 108-byte
/// sockaddr_un ceiling regardless of the build directory's depth.
std::string test_socket(const char* tag) {
  return std::string("./service_test_") + tag + ".sock";
}

using Clock = std::chrono::steady_clock;

/// Reads a raw connection until the server closes it or `deadline`
/// passes, and returns every byte that arrived.
std::string read_until_closed(int fd, Clock::time_point deadline) {
  std::string bytes;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd p{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      ADD_FAILURE() << "connection still open at the deadline";
      return bytes;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return bytes;
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
}

// --- Frame codec: round-trips ---

TEST(ServiceProtocolTest, EveryFrameTypeRoundTrips) {
  for (const service::Frame& frame : fixtures::sample_frames()) {
    const std::string bytes = service::encode_frame(frame);
    const service::Frame back = service::decode_frame(bytes);
    EXPECT_EQ(back.type, frame.type)
        << service::frame_type_name(frame.type);
    EXPECT_EQ(back.args, frame.args);
    EXPECT_EQ(back.payload, frame.payload);
  }
}

TEST(ServiceProtocolTest, EncodeRejectsGrammarViolations) {
  service::Frame wrong_args{service::FrameType::kStatus, {}, ""};
  EXPECT_THROW((void)service::encode_frame(wrong_args), std::invalid_argument);
  service::Frame spacey{service::FrameType::kStatus, {"j 42"}, ""};
  EXPECT_THROW((void)service::encode_frame(spacey), std::invalid_argument);
  service::Frame missing_payload{service::FrameType::kSubmit, {}, ""};
  EXPECT_THROW((void)service::encode_frame(missing_payload),
               std::invalid_argument);
  service::Frame stray_payload{service::FrameType::kPong, {}, "x"};
  EXPECT_THROW((void)service::encode_frame(stray_payload),
               std::invalid_argument);
}

// --- Frame codec: negative paths (parse-or-fail, never partial) ---

void expect_protocol_error(const std::string& bytes, const char* expect_text) {
  try {
    (void)service::decode_frame(bytes);
    FAIL() << "decoded malformed frame: " << bytes;
  } catch (const service::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find(expect_text), std::string::npos)
        << "message '" << e.what() << "' lacks '" << expect_text << "'";
  }
}

TEST(ServiceProtocolTest, DecodeRejectsTruncatedFrames) {
  const std::string good =
      service::encode_frame({service::FrameType::kSubmit, {}, "0123456789"});
  // No newline at all: the header never completes.
  expect_protocol_error("sops-service-wire v3 ping 0", "newline");
  // Payload cut short.
  expect_protocol_error(good.substr(0, good.size() - 4), "truncated");
  // Header says 10 bytes but the buffer carries more.
  expect_protocol_error(good + "extra", "trailing");
}

TEST(ServiceProtocolTest, DecodeRejectsVersionSkew) {
  expect_protocol_error("sops-service-wire v2 ping 0\n", "version");
  expect_protocol_error("sops-service-wire v4 ping 0\n", "version");
  expect_protocol_error("sops-shard-wire v3 ping 0\n", "magic");
}

TEST(ServiceProtocolTest, DecodeRejectsFieldCorruption) {
  expect_protocol_error("sops-service-wire v3 frobnicate 0\n", "frame type");
  // Wrong token count for the type.
  expect_protocol_error("sops-service-wire v3 status 0\n", "'status'");
  expect_protocol_error("sops-service-wire v3 ping j1 0\n", "'ping'");
  // Corrupt payload byte count.
  expect_protocol_error("sops-service-wire v3 ping 0x10\n",
                        "payload byte count");
  expect_protocol_error("sops-service-wire v3 ping -1\n",
                        "payload byte count");
  // Doubled separator.
  expect_protocol_error("sops-service-wire v3  ping 0\n", "empty token");
  // Payload presence contradicting the type's grammar.
  expect_protocol_error("sops-service-wire v3 submit 0\n", "requires");
  expect_protocol_error("sops-service-wire v3 pong 5\nhello", "must not");
}

// --- Embedded-document payloads ---

TEST(ServiceProtocolTest, JobPayloadRoundTrips) {
  const shard::JobSpec job = small_job(3, 16, 500);
  const std::string payload = service::encode_job_payload(job);
  const shard::JobSpec back = service::decode_job_payload(payload);
  // Wire encoding is the canonical equality for job identity.
  EXPECT_EQ(service::encode_job_payload(back), payload);
  EXPECT_EQ(back.name, "service_sweep");
  EXPECT_EQ(back.tasks.size(), 3u);
}

TEST(ServiceProtocolTest, JobPayloadRejectsMalformedDocuments) {
  const shard::JobSpec job = small_job(2, 16, 500);
  std::string payload = service::encode_job_payload(job);
  // Embedded-document version skew.
  std::string skewed = payload;
  skewed.replace(skewed.find("sops-shard-wire v3") + 16, 2, "v9");
  EXPECT_THROW((void)service::decode_job_payload(skewed),
               service::ProtocolError);
  // Field corruption inside the document.
  std::string corrupt = payload;
  corrupt.replace(corrupt.find("grid.lambdas"), 12, "grid.lambdaz");
  EXPECT_THROW((void)service::decode_job_payload(corrupt),
               service::ProtocolError);
  // Truncation.
  EXPECT_THROW(
      (void)service::decode_job_payload(payload.substr(0, payload.size() / 2)),
      service::ProtocolError);
}

TEST(ServiceProtocolTest, JobPayloadRejectsSmuggledResults) {
  const shard::JobSpec job = small_job(1, 12, 100);
  engine::ThreadPool pool(1);
  const service::JobProgram program = service::build_program(job);
  const auto results = engine::run_ensemble(pool, job.tasks, program.fn);
  const std::string with_results =
      service::encode_result_payload(job, results);
  EXPECT_THROW((void)service::decode_job_payload(with_results),
               service::ProtocolError);
  // The same document is a fine *result* payload.
  const shard::ShardFile file =
      service::decode_result_payload(with_results);
  EXPECT_EQ(file.results.size(), 1u);
}

TEST(ServiceProtocolTest, ResultPayloadRequiresCompleteness) {
  const shard::JobSpec job = small_job(2, 12, 100);
  const std::string incomplete = service::encode_job_payload(job);
  EXPECT_THROW((void)service::decode_result_payload(incomplete),
               service::ProtocolError);
}

TEST(ServiceProtocolTest, JobStateTokensRoundTrip) {
  for (const service::JobState s :
       {service::JobState::kQueued, service::JobState::kRunning,
        service::JobState::kDone, service::JobState::kCancelled,
        service::JobState::kFailed}) {
    EXPECT_EQ(service::parse_job_state(service::job_state_name(s)), s);
  }
  EXPECT_THROW((void)service::parse_job_state("paused"),
               service::ProtocolError);
  EXPECT_FALSE(service::is_terminal(service::JobState::kRunning));
  EXPECT_TRUE(service::is_terminal(service::JobState::kFailed));
}

// --- Job registry ---

TEST(ServiceJobsTest, UnknownJobNameIsRefusedAsUnknown) {
  shard::JobSpec job = small_job(1, 12, 100);
  job.name = "bench_nonexistent";
  try {
    (void)service::build_program(job);
    FAIL() << "built a program for an unregistered job";
  } catch (const service::JobError& e) {
    EXPECT_EQ(e.reason(), service::kRefusedUnknownJob);
    EXPECT_NE(std::string(e.what()).find("bench_nonexistent"),
              std::string::npos);
  }
}

TEST(ServiceJobsTest, BadParamsAreRefusedNamingTheField) {
  // Missing required blob=.
  shard::JobSpec job = small_job(1, 12, 100);
  job.params = {"colors=2"};
  try {
    (void)service::build_program(job);
    FAIL() << "built a program without blob=";
  } catch (const service::JobError& e) {
    EXPECT_EQ(e.reason(), service::kRefusedBadJob);
    EXPECT_NE(std::string(e.what()).find("blob"), std::string::npos);
  }
  // Unknown param key.
  job = small_job(1, 12, 100);
  job.params.push_back("warp=9");
  EXPECT_THROW((void)service::build_program(job), service::JobError);
  // Out-of-range colors.
  job = small_job(1, 12, 100);
  job.params = {"blob=12", "colors=0"};
  EXPECT_THROW((void)service::build_program(job), service::JobError);
  // Figure-3 recipe without its checkpoint protocol.
  job = small_job(1, 12, 100);
  job.name = "bench_fig3_phase_diagram";
  job.checkpoints.clear();
  try {
    (void)service::build_program(job);
    FAIL() << "built fig3 without checkpoints";
  } catch (const service::JobError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoints"), std::string::npos);
  }
}

TEST(ServiceJobsTest, ConstructorRefusalsAreBadJobs) {
  // A chain constructor refuses λ <= 0 with std::invalid_argument; the
  // registry reports it as a ModelError, so the submit is refused as a
  // bad job instead of escaping the server's handler.
  shard::JobSpec job = small_job(1, 12, 100);
  job.grid.lambdas = {0.0};
  job.tasks = engine::grid_tasks(job.grid);
  try {
    (void)service::build_program(job);
    FAIL() << "built a program with lambda = 0";
  } catch (const service::JobError& e) {
    EXPECT_EQ(e.reason(), service::kRefusedBadJob);
    EXPECT_NE(std::string(e.what()).find("lambda and gamma must be > 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServiceJobsTest, UnknownModelTagIsRefusedAsUnknownModel) {
  // A syntactically fine job whose model tag nobody registered is a
  // named synchronous refusal — its own reason token, distinct from
  // unknown-job (the name IS registered) and bad-job (the params are
  // fine), with the registered set listed for the operator.
  shard::JobSpec job = small_job(1, 12, 100);
  job.model = "voter";
  try {
    (void)service::build_program(job);
    FAIL() << "built a program for an unregistered model";
  } catch (const service::JobError& e) {
    EXPECT_EQ(e.reason(), service::kRefusedUnknownModel);
    EXPECT_NE(std::string(e.what()).find("model 'voter' not registered"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("separation"), std::string::npos)
        << e.what();
  }
  // The separation-specific recipes refuse foreign tags too — they
  // hard-code the separation chain's start configuration.
  job = small_job(1, 12, 100);
  job.name = "bench_fig3_phase_diagram";
  job.model = "alignment";
  try {
    (void)service::build_program(job);
    FAIL() << "built fig3 for a non-separation model";
  } catch (const service::JobError& e) {
    EXPECT_EQ(e.reason(), service::kRefusedBadJob);
    EXPECT_NE(std::string(e.what()).find("separation"), std::string::npos);
  }
}

TEST(ServiceJobsTest, ModelFieldSurvivesAndV2PayloadsAreRefused) {
  // Payloads carry the model line verbatim. A v2 payload (pre-model
  // wire) is refused by version: nothing writes v2 any more, so the
  // server no longer guesses its model.
  shard::JobSpec job = small_job(2, 16, 500);
  job.model = "alignment";
  job.params = {"blob=16"};
  const std::string payload = service::encode_job_payload(job);
  const shard::JobSpec back = service::decode_job_payload(payload);
  EXPECT_EQ(back.model, "alignment");
  EXPECT_EQ(service::encode_job_payload(back), payload);

  shard::JobSpec legacy = small_job(2, 16, 500);
  std::string v2 = service::encode_job_payload(legacy);
  v2.replace(v2.find("sops-shard-wire v3") + 16, 2, "v2");
  const auto mpos = v2.find("model separation\n");
  ASSERT_NE(mpos, std::string::npos);
  v2.erase(mpos, std::string("model separation\n").size());
  try {
    (void)service::decode_job_payload(v2);
    FAIL() << "decoded a v2 payload";
  } catch (const service::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported wire version v2"),
              std::string::npos)
        << e.what();
  }
}

// --- Engine cancel token ---

TEST(ServiceCancelTest, ArmedTokenCancelsBeforeAnyTask) {
  const shard::JobSpec job = small_job(4, 12, 100);
  const service::JobProgram program = service::build_program(job);
  engine::ThreadPool pool(2);
  std::atomic<bool> cancel{true};
  EXPECT_THROW((void)engine::run_ensemble(pool, job.tasks, program.fn,
                                          nullptr, &cancel),
               engine::Cancelled);
  // Unarmed token: same call completes.
  cancel.store(false);
  const auto results =
      engine::run_ensemble(pool, job.tasks, program.fn, nullptr, &cancel);
  EXPECT_EQ(results.size(), 4u);
}

// --- End-to-end over a real socket ---

TEST(ServiceServerTest, SubmitPollFetchMatchesLocalRunByteForByte) {
  const std::string socket_path = test_socket("e2e");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 2;
  service::SweepServer server(config);
  server.start();

  service::Client client(socket_path);
  client.ping();

  const shard::JobSpec job = small_job(3, 16, 400);
  const std::vector<engine::TaskResult> remote =
      service::run_job(socket_path, job, /*poll_interval_ms=*/2);
  ASSERT_EQ(remote.size(), job.tasks.size());

  // The same job run locally through the registry must produce the
  // byte-identical canonical document.
  engine::ThreadPool pool(1);
  const service::JobProgram program = service::build_program(job);
  const auto local = engine::run_ensemble(pool, job.tasks, program.fn);
  EXPECT_EQ(service::encode_result_payload(job, remote),
            service::encode_result_payload(job, local));

  client.shutdown_server();
  server.wait();
  const service::SweepServer::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServiceServerTest, StatusResultAndCancelRefusalPaths) {
  const std::string socket_path = test_socket("paths");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();
  service::Client client(socket_path);

  // Unknown ids are refused with the unknown-id reason, not invented.
  try {
    (void)client.status("j999");
    FAIL() << "status of an unknown id succeeded";
  } catch (const service::Refused& e) {
    EXPECT_EQ(e.reason(), service::kRefusedUnknownId);
  }

  // A deliberately long job gets cancelled and stays cancelled.
  const shard::JobSpec long_job = small_job(64, 24, 500000);
  const service::Client::Submitted submitted = client.submit(long_job);
  ASSERT_TRUE(submitted.accepted);
  (void)client.cancel(submitted.job_id);
  service::Client::Status status;
  do {
    status = client.status(submitted.job_id);
  } while (!service::is_terminal(status.state));
  EXPECT_EQ(status.state, service::JobState::kCancelled);
  try {
    (void)client.result(submitted.job_id);
    FAIL() << "result of a cancelled job succeeded";
  } catch (const service::Refused& e) {
    EXPECT_EQ(e.reason(), service::kRefusedJobCancelled);
  }

  // Unknown job names are refused at submit time.
  shard::JobSpec unknown = small_job(1, 12, 100);
  unknown.name = "bench_nonexistent";
  const service::Client::Submitted refused = client.submit(unknown);
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reason, service::kRefusedUnknownJob);

  // So are bogus model tags — synchronously, before anything queues.
  shard::JobSpec bogus = small_job(1, 12, 100);
  bogus.model = "majority";
  const service::Client::Submitted no_model = client.submit(bogus);
  EXPECT_FALSE(no_model.accepted);
  EXPECT_EQ(no_model.reason, service::kRefusedUnknownModel);

  client.shutdown_server();
  server.wait();
}

// run_job rethrows a refused submission as it came off the wire: the
// message carries the "service: refused (<reason>): " prefix once,
// followed by the server's own payload.
TEST(ServiceServerTest, RunJobRefusalCarriesThePrefixOnce) {
  const std::string socket_path = test_socket("refused_once");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();

  shard::JobSpec unknown = small_job(1, 12, 100);
  unknown.name = "bench_nonexistent";
  try {
    (void)service::run_job(socket_path, unknown, /*poll_interval_ms=*/2);
    ADD_FAILURE() << "run_job of an unregistered job name succeeded";
  } catch (const service::Refused& e) {
    const std::string what = e.what();
    const std::string prefix =
        std::string("service: refused (") + service::kRefusedUnknownJob + "): ";
    EXPECT_EQ(e.reason(), service::kRefusedUnknownJob);
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    EXPECT_EQ(what.find("refused", prefix.size()), std::string::npos) << what;
    EXPECT_NE(what.find("'bench_nonexistent' not registered"),
              std::string::npos)
        << what;
  }

  service::Client(socket_path).shutdown_server();
  server.wait();
}

TEST(ServiceServerTest, BoundedQueueRefusesOverload) {
  const std::string socket_path = test_socket("overload");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  config.queue_limit = 1;
  service::SweepServer server(config);
  server.start();
  service::Client client(socket_path);

  // Occupy the executor with a long job...
  const service::Client::Submitted running =
      client.submit(small_job(64, 24, 500000, /*seed=*/11));
  ASSERT_TRUE(running.accepted);
  service::Client::Status status;
  do {
    status = client.status(running.job_id);
  } while (status.state == service::JobState::kQueued);
  // ...fill the queue's single slot...
  const service::Client::Submitted queued =
      client.submit(small_job(2, 12, 100, /*seed=*/12));
  ASSERT_TRUE(queued.accepted);
  // ...and watch the next submission bounce.
  const service::Client::Submitted bounced =
      client.submit(small_job(2, 12, 100, /*seed=*/13));
  ASSERT_FALSE(bounced.accepted);
  EXPECT_EQ(bounced.reason, service::kRefusedQueueFull);

  (void)client.cancel(queued.job_id);
  (void)client.cancel(running.job_id);
  client.shutdown_server();
  server.wait();
  EXPECT_GE(server.stats().refused, 1u);
  EXPECT_GE(server.stats().cancelled, 2u);
}

// A job's spec and program are freed when it ends; what status and
// result answer from is its record. With room for two terminal jobs,
// the first of three finished jobs is evicted, the other two answer
// from their records alone, and a job cancelled in the queue still
// reports the task count it was submitted with.
TEST(ServiceServerTest, RetainedJobsAnswerFromTheirRecords) {
  const std::string socket_path = test_socket("retain");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  config.retain_limit = 2;
  service::SweepServer server(config);
  server.start();
  service::Client client(socket_path);
  service::FrameChannel raw(service::connect_unix(socket_path));

  const auto expect_unknown = [](auto query) {
    try {
      query();
      ADD_FAILURE() << "an evicted job was still answered";
    } catch (const service::Refused& e) {
      EXPECT_EQ(e.reason(), service::kRefusedUnknownId);
    }
  };

  std::vector<shard::JobSpec> jobs;
  std::vector<std::string> ids;
  for (std::size_t tasks = 1; tasks <= 3; ++tasks) {
    jobs.push_back(small_job(tasks, 12, 200, /*seed=*/20 + tasks));
    const service::Client::Submitted submitted = client.submit(jobs.back());
    ASSERT_TRUE(submitted.accepted);
    ids.push_back(submitted.job_id);
    service::Client::Status status;
    do {
      status = client.status(ids.back());
    } while (!service::is_terminal(status.state));
    ASSERT_EQ(status.state, service::JobState::kDone);
  }

  expect_unknown([&] { (void)client.status(ids[0]); });
  expect_unknown([&] { (void)client.result(ids[0]); });

  engine::ThreadPool pool(1);
  for (std::size_t k = 1; k < 3; ++k) {
    const service::Client::Status status = client.status(ids[k]);
    EXPECT_EQ(status.state, service::JobState::kDone);
    EXPECT_EQ(status.done, jobs[k].tasks.size());
    EXPECT_EQ(status.total, jobs[k].tasks.size());

    service::Frame request;
    request.type = service::FrameType::kResult;
    request.args = {ids[k]};
    raw.send(request);
    const std::optional<service::Frame> answer = raw.recv();
    ASSERT_TRUE(answer.has_value());
    ASSERT_EQ(answer->type, service::FrameType::kResultOk);
    const service::JobProgram program = service::build_program(jobs[k]);
    const auto local = engine::run_ensemble(pool, jobs[k].tasks, program.fn);
    EXPECT_EQ(answer->payload,
              service::encode_result_payload(jobs[k], local));
  }

  // Occupy the executor, then cancel a job while it waits in the queue.
  const service::Client::Submitted running =
      client.submit(small_job(64, 24, 500000, /*seed=*/24));
  ASSERT_TRUE(running.accepted);
  service::Client::Status status;
  do {
    status = client.status(running.job_id);
  } while (status.state == service::JobState::kQueued);
  const shard::JobSpec queued_job = small_job(5, 12, 200, /*seed=*/25);
  const service::Client::Submitted queued = client.submit(queued_job);
  ASSERT_TRUE(queued.accepted);
  EXPECT_EQ(client.cancel(queued.job_id), service::JobState::kCancelled);
  status = client.status(queued.job_id);
  EXPECT_EQ(status.state, service::JobState::kCancelled);
  EXPECT_EQ(status.done, 0u);
  EXPECT_EQ(status.total, queued_job.tasks.size());

  (void)client.cancel(running.job_id);
  client.shutdown_server();
  server.wait();
  const service::SweepServer::Stats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cancelled, 2u);
}

TEST(ServiceServerTest, MalformedBytesGetAnErrorFrameThenClose) {
  const std::string socket_path = test_socket("malformed");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();

  service::FrameChannel raw(service::connect_unix(socket_path));
  const std::string garbage = "sops-service-wire v2 ping 0\n";
  ssize_t n = ::send(raw.fd().get(), garbage.data(), garbage.size(), 0);
  ASSERT_EQ(n, static_cast<ssize_t>(garbage.size()));
  const std::optional<service::Frame> reply = raw.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, service::FrameType::kError);
  EXPECT_NE(reply->payload.find("version"), std::string::npos);
  // The connection is closed after a framing error.
  EXPECT_FALSE(raw.recv().has_value());

  service::Client client(socket_path);
  client.shutdown_server();
  server.wait();
}

TEST(ServiceServerTest, HugeDeclaredCountGetsAnErrorFrame) {
  // A submit whose task count is 2^62 once escaped the payload decoder
  // as std::length_error and the server closed the connection without a
  // word. It is a wire error now, answered with an `error` frame.
  const std::string socket_path = test_socket("hugecount");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();

  std::string payload = service::encode_job_payload(small_job(2, 12, 100));
  payload.replace(payload.find("tasks 2"), 7, "tasks 4611686018427387904");
  service::FrameChannel raw(service::connect_unix(socket_path));
  raw.send({service::FrameType::kSubmit, {}, payload});
  const std::optional<service::Frame> reply = raw.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, service::FrameType::kError);
  EXPECT_NE(reply->payload.find("exceeds the"), std::string::npos)
      << reply->payload;

  service::Client client(socket_path);
  client.shutdown_server();
  server.wait();
}

TEST(ServiceServerTest, OversizedJobIsRefusedAsTooLarge) {
  const std::string socket_path = test_socket("toolarge");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  config.max_job_tasks = 2;
  service::SweepServer server(config);
  server.start();
  service::Client client(socket_path);

  const service::Client::Submitted refused =
      client.submit(small_job(3, 12, 100));
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reason, service::kRefusedTooLarge);
  EXPECT_NE(refused.detail.find("job has 3 tasks"), std::string::npos)
      << refused.detail;
  EXPECT_NE(refused.detail.find("caps jobs at 2"), std::string::npos)
      << refused.detail;
  EXPECT_EQ(server.stats().refused, 1u);
  // A refusal is an answer, not a broken connection.
  client.ping();

  client.shutdown_server();
  server.wait();
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST(ServiceServerTest, OneWriteOfThreeRequestsGetsThreeAnswersInOrder) {
  const std::string socket_path = test_socket("pipelined");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();

  {
    service::FrameChannel raw(service::connect_unix(socket_path));
    const std::string bytes =
        service::encode_frame({service::FrameType::kPing, {}, ""}) +
        service::encode_frame({service::FrameType::kStatus, {"j999"}, ""}) +
        service::encode_frame({service::FrameType::kPing, {}, ""});
    ASSERT_EQ(::send(raw.fd().get(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    const std::optional<service::Frame> first = raw.recv();
    const std::optional<service::Frame> second = raw.recv();
    const std::optional<service::Frame> third = raw.recv();
    ASSERT_TRUE(first && second && third);
    EXPECT_EQ(first->type, service::FrameType::kPong);
    EXPECT_EQ(second->type, service::FrameType::kRefused);
    EXPECT_EQ(second->args,
              std::vector<std::string>{service::kRefusedUnknownId});
    EXPECT_EQ(third->type, service::FrameType::kPong);
  }

  service::Client client(socket_path);
  client.shutdown_server();
  server.wait();
}

TEST(ServiceServerTest, IdleConnectionsDoNotDelayOthers) {
  // Four idle clients: more than a server that gives each connection a
  // thread of its own would have had.
  const std::string socket_path = test_socket("idle");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();
  std::vector<std::unique_ptr<service::Client>> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(std::make_unique<service::Client>(socket_path));
  }

  auto pinged = std::async(std::launch::async,
                           [&] { service::Client(socket_path).ping(); });
  auto ran = std::async(std::launch::async, [&] {
    return service::run_job(socket_path, small_job(2, 12, 100),
                            /*poll_interval_ms=*/2);
  });
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  EXPECT_EQ(pinged.wait_until(deadline), std::future_status::ready)
      << "no pong within 5 s while 4 idle clients are connected";
  EXPECT_EQ(ran.wait_until(deadline), std::future_status::ready)
      << "run_job unfinished after 5 s while 4 idle clients are connected";
  // Closing the idle clients frees any server that waits on them, so
  // both calls end either way.
  idle.clear();
  pinged.get();
  EXPECT_EQ(ran.get().size(), 2u);

  service::Client(socket_path).shutdown_server();
  server.wait();
}

TEST(ServiceServerTest, ShutdownIsImmediateWithAnIdleClientConnected) {
  const std::string socket_path = test_socket("shutdown");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();
  std::optional<service::Client> idle(socket_path);
  idle->ping();

  service::Client(socket_path).shutdown_server();
  auto waited = std::async(std::launch::async, [&] { server.wait(); });
  EXPECT_EQ(waited.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "wait() still blocked 2 s after an acknowledged shutdown";
  idle.reset();  // frees a server that waits on the idle client
  waited.get();
}

TEST(ServiceServerTest, PeersThatStopReadingStallOnlyThemselves) {
  const std::string socket_path = test_socket("stalled");
  service::ServerConfig config;
  config.socket_path = socket_path;
  config.pool_threads = 1;
  service::SweepServer server(config);
  server.start();

  // Two peers write pings without reading until their sockets take no
  // more: 200 ms in a row of EAGAIN. A nonblocking send may stop inside
  // a ping, so each peer counts the bytes that went out.
  const std::string ping =
      service::encode_frame({service::FrameType::kPing, {}, ""});
  std::string burst;
  for (int i = 0; i < 256; ++i) burst += ping;
  std::vector<service::Fd> peers;
  std::vector<std::size_t> sent;
  for (int p = 0; p < 2; ++p) {
    peers.push_back(service::connect_unix(socket_path));
    std::size_t total = 0;
    for (int stalls = 0; stalls < 20;) {
      const std::size_t at = total % ping.size();
      const ssize_t n = ::send(peers.back().get(), burst.data() + at,
                               burst.size() - at, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        total += static_cast<std::size_t>(n);
        stalls = 0;
        continue;
      }
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      ++stalls;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    sent.push_back(total);
  }

  auto pinged = std::async(std::launch::async,
                           [&] { service::Client(socket_path).ping(); });
  EXPECT_EQ(pinged.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "no pong within 5 s while two peers have stopped reading";

  // The first peer reads now: one pong per complete ping, in order, and
  // once it ends its side, a torn last ping is answered as truncated.
  ::shutdown(peers[0].get(), SHUT_WR);
  const std::string got = read_until_closed(
      peers[0].get(), Clock::now() + std::chrono::seconds(20));
  const std::string pong =
      service::encode_frame({service::FrameType::kPong, {}, ""});
  const std::size_t complete = sent[0] / ping.size();
  std::string expect;
  for (std::size_t i = 0; i < complete; ++i) expect += pong;
  EXPECT_GT(complete, 0u);
  EXPECT_EQ(got.substr(0, expect.size()), expect)
      << "expected " << complete << " pongs, got " << got.size() << " bytes";
  if (sent[0] % ping.size() == 0) {
    EXPECT_EQ(got.size(), expect.size());
  } else if (got.size() > expect.size()) {
    const service::Frame last =
        service::decode_frame(got.substr(expect.size()));
    EXPECT_EQ(last.type, service::FrameType::kError);
    EXPECT_NE(last.payload.find("truncated frame"), std::string::npos)
        << last.payload;
  } else {
    ADD_FAILURE() << "no answer to the torn last ping";
  }

  peers.clear();  // frees a server that waits on the stalled peers
  pinged.get();
  service::Client(socket_path).shutdown_server();
  server.wait();
}

}  // namespace
