#include "src/service/client.hpp"

#include <chrono>
#include <thread>

#include "src/util/record.hpp"

namespace sops::service {

namespace {

std::uint64_t parse_arg_u64(const Frame& frame, std::size_t index,
                            const char* field) {
  const std::string& token = frame.args.at(index);
  const std::optional<std::uint64_t> value = util::record::parse_u64(token);
  if (!value) {
    throw ProtocolError(std::string("service: response: ") + field +
                        ": expected unsigned integer, got '" + token + "'");
  }
  return *value;
}

}  // namespace

Client::Client(const std::string& socket_path)
    : channel_(connect_unix(socket_path)) {}

Frame Client::roundtrip(const Frame& request, FrameType expect) {
  channel_.send(request);
  std::optional<Frame> response = channel_.recv();
  if (!response) {
    throw std::runtime_error(
        "service: server closed the connection without answering");
  }
  if (response->type == FrameType::kError) {
    throw ProtocolError("service: server rejected the request (field '" +
                        response->args[0] + "'): " + response->payload);
  }
  if (response->type == FrameType::kRefused) {
    throw Refused(response->args[0], response->payload);
  }
  if (response->type != expect) {
    throw ProtocolError(std::string("service: response: expected '") +
                        frame_type_name(expect) + "' frame, got '" +
                        frame_type_name(response->type) + "'");
  }
  return std::move(*response);
}

Client::Submitted Client::submit(const shard::JobSpec& job) {
  Frame request;
  request.type = FrameType::kSubmit;
  request.payload = encode_job_payload(job);
  Submitted out;
  try {
    const Frame response = roundtrip(request, FrameType::kAccepted);
    out.accepted = true;
    out.job_id = response.args[0];
    out.queue_depth = parse_arg_u64(response, 1, "queue depth");
  } catch (const Refused& e) {
    out.accepted = false;
    out.reason = e.reason();
    out.detail = e.detail();
  }
  return out;
}

Client::Status Client::status(const std::string& job_id) {
  Frame request;
  request.type = FrameType::kStatus;
  request.args = {job_id};
  const Frame response = roundtrip(request, FrameType::kStatusOk);
  Status out;
  out.state = parse_job_state(response.args[1]);
  out.done = parse_arg_u64(response, 2, "done tasks");
  out.total = parse_arg_u64(response, 3, "total tasks");
  return out;
}

shard::ShardFile Client::result(const std::string& job_id) {
  Frame request;
  request.type = FrameType::kResult;
  request.args = {job_id};
  const Frame response = roundtrip(request, FrameType::kResultOk);
  return decode_result_payload(response.payload);
}

JobState Client::cancel(const std::string& job_id) {
  Frame request;
  request.type = FrameType::kCancel;
  request.args = {job_id};
  const Frame response = roundtrip(request, FrameType::kCancelOk);
  return parse_job_state(response.args[1]);
}

void Client::ping() {
  Frame request;
  request.type = FrameType::kPing;
  (void)roundtrip(request, FrameType::kPong);
}

void Client::shutdown_server() {
  Frame request;
  request.type = FrameType::kShutdown;
  (void)roundtrip(request, FrameType::kShutdownOk);
}

std::vector<engine::TaskResult> run_job(const std::string& socket_path,
                                        const shard::JobSpec& job,
                                        int poll_interval_ms) {
  Client client(socket_path);
  const Client::Submitted submitted = client.submit(job);
  if (!submitted.accepted) {
    throw Refused(submitted.reason, submitted.detail);
  }
  for (;;) {
    const Client::Status status = client.status(submitted.job_id);
    if (is_terminal(status.state)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_interval_ms));
  }
  // result() turns failed/cancelled into a Refused carrying the server's
  // diagnosis, which is exactly the error the caller should see.
  shard::ShardFile file = client.result(submitted.job_id);
  // The report downstream assumes it describes the job that was
  // submitted: byte-compare the job identity on its wire encoding (the
  // canonical equality the shard layer defines).
  if (encode_job_payload(file.job) != encode_job_payload(job)) {
    throw ProtocolError(
        "service: result payload: job header differs from the submitted "
        "job");
  }
  return std::move(file.results);
}

}  // namespace sops::service
