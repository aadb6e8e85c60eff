#include "src/service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sops::service {

namespace {

Frame make_refused(const std::string& reason, const std::string& detail) {
  Frame f;
  f.type = FrameType::kRefused;
  f.args = {reason};
  f.payload = detail;
  return f;
}

Frame make_error(const std::string& field, const std::string& detail) {
  Frame f;
  f.type = FrameType::kError;
  f.args = {field};
  f.payload = detail;
  return f;
}

}  // namespace

struct SweepServer::Connection {
  Fd fd;
  std::string in;        ///< received bytes not yet answered
  std::string out;       ///< the encoded answer being sent
  std::size_t sent = 0;  ///< bytes of `out` sent so far
  bool closing = false;  ///< close once `out` is sent
};

SweepServer::SweepServer(ServerConfig config) : config_(std::move(config)) {}

SweepServer::~SweepServer() {
  request_stop();
  wait();
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
}

void SweepServer::start() {
  telemetry_ = std::make_unique<engine::ProgressSink>(config_.telemetry);
  pool_ = std::make_unique<engine::ThreadPool>(config_.pool_threads);
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("service: pipe2: ") +
                             std::strerror(errno));
  }
  listen_fd_ = listen_unix(config_.socket_path, 128);
  // Only poll() blocks in the I/O loop: accept must return at once.
  ::fcntl(listen_fd_.get(), F_SETFL, O_NONBLOCK);
  executor_ = std::thread([this] { executor_loop(); });
  io_ = std::thread([this] { io_loop(); });
}

void SweepServer::wait() {
  if (io_.joinable()) io_.join();
  if (executor_.joinable()) executor_.join();
}

void SweepServer::request_stop() {
  if (stopping_.exchange(true)) return;
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
  queue_cv_.notify_all();
}

SweepServer::Stats SweepServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SweepServer::io_loop() {
  std::vector<Connection> connections;
  std::vector<pollfd> fds;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // The stop pipe only wakes poll(); stopping_ ends the loop.
    fds.assign({{stop_pipe_[0], POLLIN, 0}, {listen_fd_.get(), POLLIN, 0}});
    for (const Connection& c : connections) {
      // Unsent bytes go out before the next read, so a peer that stops
      // reading stalls only itself.
      const bool unsent = c.sent < c.out.size();
      fds.push_back({c.fd.get(), unsent ? short{POLLOUT} : short{POLLIN}, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t i = 0; i < connections.size(); ++i) {
      if (fds[i + 2].revents == 0) continue;
      bool open = false;
      try {
        open = serve(connections[i]);
      } catch (const std::exception&) {
        // A connection dying must never take the server down.
      }
      if (!open) connections[i].fd.reset();
    }
    std::erase_if(connections,
                  [](const Connection& c) { return !c.fd.valid(); });
    if ((fds[1].revents & POLLIN) != 0) {
      const int client = ::accept4(listen_fd_.get(), nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (client >= 0) connections.emplace_back().fd = Fd(client);
    }
  }
}

bool SweepServer::serve(Connection& c) {
  // The peer will send nothing more. A later call learns that again:
  // recv keeps returning 0.
  bool at_end = false;
  if (c.sent == c.out.size()) {
    char chunk[4096];
    const ssize_t n = ::recv(c.fd.get(), chunk, sizeof(chunk), 0);
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    at_end = n == 0;
    c.in.append(chunk, static_cast<std::size_t>(n));
  }
  for (;;) {
    while (c.sent < c.out.size()) {
      // MSG_NOSIGNAL: a peer that hung up turns into an error return, not
      // a process-wide SIGPIPE.
      const ssize_t n = ::send(c.fd.get(), c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EINTR;
      c.sent += static_cast<std::size_t>(n);
    }
    if (c.closing || (at_end && c.in.empty())) return false;
    // The next buffered request is answered only now that the last
    // answer is sent.
    Frame request;
    Frame response;
    const char* field = "frame";
    try {
      const std::size_t n = decode_frame_prefix(c.in, at_end, request);
      if (n == 0) return true;  // the rest of the frame is on its way
      c.in.erase(0, n);
      field = "payload";
      response = handle_frame(request);
    } catch (const ProtocolError& e) {
      // No recovery from either: after a framing error the stream
      // position is unreliable. The error frame is the last answer.
      response = make_error(field, e.what());
      c.closing = true;
    }
    if (request.type == FrameType::kShutdown) {
      c.closing = true;
      request_stop();
    }
    c.out = encode_frame(response);
    c.sent = 0;
  }
}

Frame SweepServer::handle_frame(const Frame& request) {
  switch (request.type) {
    case FrameType::kPing: {
      Frame f;
      f.type = FrameType::kPong;
      return f;
    }
    case FrameType::kShutdown: {
      Frame f;
      f.type = FrameType::kShutdownOk;
      return f;
    }
    case FrameType::kSubmit:
      return handle_submit(request);
    case FrameType::kStatus: {
      const std::shared_ptr<JobRecord> job = find_job(request.args[0]);
      if (!job) {
        return make_refused(kRefusedUnknownId,
                            "no job '" + request.args[0] + "'");
      }
      Frame f;
      f.type = FrameType::kStatusOk;
      f.args = {job->id,
                job_state_name(job->state.load(std::memory_order_acquire)),
                std::to_string(job->done_tasks.load()),
                std::to_string(job->tasks)};
      return f;
    }
    case FrameType::kResult: {
      const std::shared_ptr<JobRecord> job = find_job(request.args[0]);
      if (!job) {
        return make_refused(kRefusedUnknownId,
                            "no job '" + request.args[0] + "'");
      }
      const JobState state = job->state.load(std::memory_order_acquire);
      switch (state) {
        case JobState::kDone: {
          Frame f;
          f.type = FrameType::kResultOk;
          f.args = {job->id};
          f.payload = job->answer;
          return f;
        }
        case JobState::kFailed:
          return make_refused(kRefusedJobFailed, job->answer);
        case JobState::kCancelled:
          return make_refused(kRefusedJobCancelled,
                              "job '" + job->id + "' was cancelled");
        case JobState::kQueued:
        case JobState::kRunning:
          return make_refused(kRefusedNotDone,
                              "job '" + job->id + "' is " +
                                  job_state_name(state));
      }
      return make_refused(kRefusedNotDone, "unreachable");
    }
    case FrameType::kCancel: {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(request.args[0]);
      if (it == jobs_.end()) {
        return make_refused(kRefusedUnknownId,
                            "no job '" + request.args[0] + "'");
      }
      const std::shared_ptr<JobRecord>& job = it->second;
      JobState expected = JobState::kQueued;
      if (job->state.compare_exchange_strong(expected, JobState::kCancelled,
                                             std::memory_order_acq_rel)) {
        // Still queued: drop it, and its work, before the executor ever
        // sees it.
        std::erase_if(queue_, [&job](const QueuedJob& queued) {
          return queued.record == job;
        });
        ++stats_.cancelled;
        retire_terminal_locked(*job);
      } else if (expected == JobState::kRunning) {
        // Running: arm the engine's between-task token; the executor
        // records the terminal state when the pool drains.
        job->cancel.store(true, std::memory_order_relaxed);
      }
      Frame f;
      f.type = FrameType::kCancelOk;
      f.args = {job->id,
                job_state_name(job->state.load(std::memory_order_acquire))};
      return f;
    }
    default:
      return make_error(
          "frame-type",
          std::string("service: server received response-type frame '") +
              frame_type_name(request.type) + "'");
  }
}

Frame SweepServer::handle_submit(const Frame& request) {
  // Throws ProtocolError (handled by the connection loop) on malformed
  // documents; a well-formed but invalid job is refused synchronously.
  shard::JobSpec spec = decode_job_payload(request.payload);
  if (spec.tasks.size() > config_.max_job_tasks) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.refused;
    return make_refused(kRefusedTooLarge,
                        "job has " + std::to_string(spec.tasks.size()) +
                            " tasks; this server caps jobs at " +
                            std::to_string(config_.max_job_tasks));
  }
  JobProgram program;
  try {
    program = build_program(spec);
  } catch (const JobError& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.refused;
    return make_refused(e.reason(), e.what());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_.load(std::memory_order_relaxed)) {
    ++stats_.refused;
    return make_refused(kRefusedShuttingDown, "server is shutting down");
  }
  if (queue_.size() >= config_.queue_limit) {
    ++stats_.refused;
    return make_refused(kRefusedQueueFull,
                        "queue holds " + std::to_string(queue_.size()) +
                            " jobs (limit " +
                            std::to_string(config_.queue_limit) + ")");
  }
  auto job = std::make_shared<JobRecord>();
  job->id = "j" + std::to_string(next_job_++);
  job->tasks = spec.tasks.size();
  jobs_.emplace(job->id, job);
  queue_.push_back({job, std::move(spec), std::move(program)});
  ++stats_.submitted;
  const std::size_t depth = queue_.size();
  queue_cv_.notify_one();
  Frame f;
  f.type = FrameType::kAccepted;
  f.args = {job->id, std::to_string(depth)};
  return f;
}

std::shared_ptr<SweepServer::JobRecord> SweepServer::find_job(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void SweepServer::retire_terminal_locked(const JobRecord& job) {
  terminal_order_.push_back(job.id);
  while (terminal_order_.size() > config_.retain_limit) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

void SweepServer::JobSink::record(const Record& r) {
  job_->done_tasks.fetch_add(1, std::memory_order_relaxed);
  if (server_->telemetry_) {
    Record tagged = r;
    tagged.job = job_->id;
    server_->telemetry_->record(tagged);
  }
}

void SweepServer::executor_loop() {
  for (;;) {
    // Destroyed at the end of each pass, so a job's spec and program
    // live no longer than its run.
    QueuedJob next;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) {
        // Jobs still queued at shutdown are cancelled, not silently
        // dropped: a status query on a retained id stays truthful.
        for (const QueuedJob& queued : queue_) {
          queued.record->state.store(JobState::kCancelled,
                                     std::memory_order_release);
          ++stats_.cancelled;
          retire_terminal_locked(*queued.record);
        }
        queue_.clear();
        return;
      }
      next = std::move(queue_.front());
      queue_.pop_front();
      next.record->state.store(JobState::kRunning, std::memory_order_release);
    }
    JobRecord& job = *next.record;
    JobSink sink(this, &job);
    try {
      std::vector<engine::TaskResult> results = engine::run_ensemble(
          *pool_, next.spec.tasks, next.program.fn, &sink, &job.cancel);
      if (next.program.aux) {
        for (engine::TaskResult& r : results) r.aux = next.program.aux(r);
      }
      job.answer = encode_result_payload(next.spec, results);
      // The encoder reserves ahead; a retained document keeps only its
      // own bytes.
      job.answer.shrink_to_fit();
      job.state.store(JobState::kDone, std::memory_order_release);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.completed;
      retire_terminal_locked(job);
    } catch (const engine::Cancelled&) {
      job.state.store(JobState::kCancelled, std::memory_order_release);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cancelled;
      retire_terminal_locked(job);
    } catch (const std::exception& e) {
      job.answer = e.what();
      job.state.store(JobState::kFailed, std::memory_order_release);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed;
      retire_terminal_locked(job);
    }
  }
}

}  // namespace sops::service
