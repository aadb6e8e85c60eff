#include "src/service/protocol.hpp"

#include <array>

#include "src/util/record.hpp"

namespace sops::service {

namespace rec = util::record;

namespace {

struct TypeSpec {
  FrameType type;
  const char* name;
  std::size_t args;
  bool payload_required;  ///< grammar demands a nonempty payload
  bool payload_allowed;   ///< payload may be present (refused/error detail)
};

constexpr std::array<TypeSpec, 14> kTypes{{
    {FrameType::kSubmit, "submit", 0, true, true},
    {FrameType::kStatus, "status", 1, false, false},
    {FrameType::kResult, "result", 1, false, false},
    {FrameType::kCancel, "cancel", 1, false, false},
    {FrameType::kPing, "ping", 0, false, false},
    {FrameType::kShutdown, "shutdown", 0, false, false},
    {FrameType::kAccepted, "accepted", 2, false, false},
    {FrameType::kRefused, "refused", 1, false, true},
    {FrameType::kStatusOk, "status-ok", 4, false, false},
    {FrameType::kResultOk, "result-ok", 1, true, true},
    {FrameType::kCancelOk, "cancel-ok", 2, false, false},
    {FrameType::kPong, "pong", 0, false, false},
    {FrameType::kShutdownOk, "shutdown-ok", 0, false, false},
    {FrameType::kError, "error", 1, false, true},
}};

const TypeSpec& type_spec(FrameType type) {
  for (const TypeSpec& s : kTypes) {
    if (s.type == type) return s;
  }
  throw std::invalid_argument("service: unknown FrameType value");
}

/// Parses one header line (no trailing '\n') into the type and args of
/// `frame`, which must be fresh, and returns the declared payload byte
/// count. decode_frame_prefix has already bounded the line's length.
/// Throws ProtocolError naming the offending field.
std::size_t parse_header(std::string_view line, Frame& frame) {
  rec::Line h = [line] {
    try {
      return rec::Line(line, 0);
    } catch (const rec::Error& e) {
      throw ProtocolError(std::string("service: header: ") + e.what());
    }
  }();
  if (h.arity() < 3) {
    throw ProtocolError(
        "service: header: expected 'sops-service-wire v" +
        std::to_string(kServiceWireVersion) +
        " <type> [args...] <payload_bytes>', got '" + std::string(line) + "'");
  }
  if (h.keyword() != "sops-service-wire") {
    throw ProtocolError("service: header: magic: expected 'sops-service-wire'"
                        ", got '" + std::string(h.keyword()) + "'");
  }
  std::string expect_version = "v";
  rec::put_u64(expect_version, kServiceWireVersion);
  if (const std::string_view version = h.token(); version != expect_version) {
    throw ProtocolError("service: header: version: expected '" +
                        expect_version + "', got '" + std::string(version) +
                        "'");
  }
  const std::string_view name = h.token();
  const TypeSpec* spec = nullptr;
  for (const TypeSpec& s : kTypes) {
    if (name == s.name) {
      spec = &s;
      break;
    }
  }
  if (spec == nullptr) {
    throw ProtocolError("service: header: frame type: unknown type '" +
                        std::string(name) + "'");
  }
  // args + payload_bytes
  if (h.left() != spec->args + 1) {
    throw ProtocolError(
        std::string("service: header: '") + spec->name + "' frame takes " +
        std::to_string(spec->args) + " args, got " +
        std::to_string(h.left() - 1) + " in '" + std::string(line) + "'");
  }
  frame.type = spec->type;
  for (std::size_t i = 0; i < spec->args; ++i) {
    frame.args.emplace_back(h.token());
  }
  const std::string_view count = h.token();
  const std::optional<std::uint64_t> bytes = rec::parse_u64(count);
  if (!bytes) {
    throw ProtocolError(
        "service: header: payload byte count: expected unsigned integer, "
        "got '" + std::string(count) + "'");
  }
  if (*bytes > kMaxPayloadBytes) {
    throw ProtocolError("service: header: payload byte count: " +
                        std::to_string(*bytes) + " exceeds the " +
                        std::to_string(kMaxPayloadBytes) + "-byte ceiling");
  }
  if (*bytes == 0 && spec->payload_required) {
    throw ProtocolError(std::string("service: header: '") + spec->name +
                        "' frame requires a nonempty payload");
  }
  if (*bytes != 0 && !spec->payload_allowed) {
    throw ProtocolError(std::string("service: header: '") + spec->name +
                        "' frame must not carry a payload");
  }
  return static_cast<std::size_t>(*bytes);
}

}  // namespace

const char* frame_type_name(FrameType type) { return type_spec(type).name; }

std::string encode_frame(const Frame& frame) {
  const TypeSpec& spec = type_spec(frame.type);
  if (frame.args.size() != spec.args) {
    throw std::invalid_argument(
        std::string("service: encode: '") + spec.name + "' frame takes " +
        std::to_string(spec.args) + " args, got " +
        std::to_string(frame.args.size()));
  }
  for (const std::string& arg : frame.args) {
    if (!rec::is_token(arg)) {
      throw std::invalid_argument(
          std::string("service: encode: '") + spec.name +
          "' frame arg must be a single nonempty token, got '" + arg + "'");
    }
  }
  if (frame.payload.empty() && spec.payload_required) {
    throw std::invalid_argument(std::string("service: encode: '") + spec.name +
                                "' frame requires a payload");
  }
  if (!frame.payload.empty() && !spec.payload_allowed) {
    throw std::invalid_argument(std::string("service: encode: '") + spec.name +
                                "' frame must not carry a payload");
  }
  if (frame.payload.size() > kMaxPayloadBytes) {
    throw std::invalid_argument("service: encode: payload exceeds " +
                                std::to_string(kMaxPayloadBytes) + " bytes");
  }
  std::string out;
  out.reserve(48 + frame.payload.size());
  out += "sops-service-wire v";
  rec::put_u64(out, kServiceWireVersion);
  out += ' ';
  out += spec.name;
  for (const std::string& arg : frame.args) {
    out += ' ';
    out += arg;
  }
  out += ' ';
  rec::put_u64(out, frame.payload.size());
  out += '\n';
  out += frame.payload;
  return out;
}

std::size_t decode_frame_prefix(std::string_view bytes, bool at_end,
                                Frame& frame) {
  // The header line ends within kMaxHeaderBytes + 1 bytes or never, so a
  // peer that sends no newline is refused once it has sent too much.
  const std::size_t newline = bytes.substr(0, kMaxHeaderBytes + 1).find('\n');
  if (newline == std::string_view::npos) {
    if (bytes.size() > kMaxHeaderBytes) {
      throw ProtocolError("service: header: line exceeds " +
                          std::to_string(kMaxHeaderBytes) + " bytes");
    }
    if (!at_end) return 0;
    throw ProtocolError(
        "service: truncated frame: header line has no terminating newline");
  }
  Frame parsed;
  const std::size_t payload_bytes =
      parse_header(bytes.substr(0, newline), parsed);
  const std::string_view rest = bytes.substr(newline + 1);
  if (rest.size() < payload_bytes) {
    if (!at_end) return 0;
    throw ProtocolError("service: truncated frame: header declares " +
                        std::to_string(payload_bytes) +
                        " payload bytes, only " + std::to_string(rest.size()) +
                        " present");
  }
  parsed.payload.assign(rest.data(), payload_bytes);
  frame = std::move(parsed);
  return newline + 1 + payload_bytes;
}

Frame decode_frame(std::string_view text) {
  Frame frame;
  if (decode_frame_prefix(text, /*at_end=*/true, frame) < text.size()) {
    throw ProtocolError("service: trailing content after the declared " +
                        std::to_string(frame.payload.size()) +
                        "-byte payload");
  }
  return frame;
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  throw std::invalid_argument("service: unknown JobState value");
}

JobState parse_job_state(std::string_view token) {
  for (const JobState s : {JobState::kQueued, JobState::kRunning,
                           JobState::kDone, JobState::kCancelled,
                           JobState::kFailed}) {
    if (token == job_state_name(s)) return s;
  }
  throw ProtocolError("service: job state: unknown token '" +
                      std::string(token) + "'");
}

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kCancelled ||
         state == JobState::kFailed;
}

std::string encode_job_payload(const shard::JobSpec& job) {
  return shard::encode(job, {}, shard::Manifest{1, 0, job.tasks.size()});
}

shard::JobSpec decode_job_payload(std::string_view text) {
  shard::ShardFile file;
  try {
    file = shard::decode(text);
  } catch (const shard::WireError& e) {
    throw ProtocolError(std::string("service: submit payload: ") + e.what());
  }
  if (!file.results.empty()) {
    throw ProtocolError(
        "service: submit payload: carries " +
        std::to_string(file.results.size()) +
        " results; a submission must describe work, not smuggle results");
  }
  return std::move(file.job);
}

std::string encode_result_payload(
    const shard::JobSpec& job, std::span<const engine::TaskResult> results) {
  return shard::encode(job, results, shard::Manifest{1, 0, job.tasks.size()});
}

shard::ShardFile decode_result_payload(std::string_view text) {
  shard::ShardFile file;
  try {
    file = shard::decode(text);
  } catch (const shard::WireError& e) {
    throw ProtocolError(std::string("service: result payload: ") + e.what());
  }
  if (file.results.size() != file.job.tasks.size()) {
    throw ProtocolError("service: result payload: incomplete: " +
                        std::to_string(file.results.size()) + " results for " +
                        std::to_string(file.job.tasks.size()) + " tasks");
  }
  return file;
}

}  // namespace sops::service
