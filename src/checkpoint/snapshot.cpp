#include "src/checkpoint/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/model/registry.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace sops::checkpoint {

namespace rec = util::record;

namespace {

constexpr std::string_view kMagic = "sops-checkpoint";

// Names the failing call, the file and the system's reason, e.g.
// "checkpoint: fsync 'x.sopsckpt.tmp': Input/output error".
[[noreturn]] void io_error(const char* call, const std::string& file,
                           int err) {
  throw std::runtime_error(std::string("checkpoint: ") + call + " '" + file +
                           "': " + std::strerror(err));
}

// FNV-1a over a byte string: stable, dependency-free, and plenty for
// tamper evidence and spec identity (this is an integrity check against
// accidental corruption/drift, not an adversary).
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Integrity first: locate the checksum line from the back and verify it
// over the byte prefix before trusting any field. This turns every
// flavor of corruption — bit flips, truncation, hand edits — into one
// unambiguous "checksum mismatch" instead of a downstream grammar error
// that might accidentally parse.
void verify_checksum(std::string_view text) {
  const auto pos = text.rfind("\nchecksum ");
  if (pos == std::string_view::npos) {
    throw SnapshotError("checkpoint: missing checksum line");
  }
  const std::string_view rest = text.substr(pos + 10);
  const std::string_view tok = rest.substr(0, rest.find('\n'));
  const auto declared = rec::parse_hex16(tok);
  if (tok.size() == rest.size() || !declared) {
    throw SnapshotError("checkpoint: malformed checksum line");
  }
  const std::uint64_t actual = fnv1a(text.substr(0, pos + 1));
  if (actual != *declared) {
    std::string hashed;
    rec::put_hex16(hashed, actual);
    throw SnapshotError("checkpoint: checksum mismatch (file says " +
                        std::string(tok) + ", content hashes to " + hashed +
                        ") — snapshot is corrupt or truncated");
  }
}

Snapshot parse(std::string_view text) {
  rec::Cursor in(text);
  in.header(kMagic, kSnapshotVersion, "checkpoint");
  Snapshot snap;
  snap.job = in.expect("job", 1).token();
  snap.model = in.expect("model", 1).token();
  snap.spec_hash = in.expect("spec", 1).hex16();
  {
    rec::Line task = in.expect("task", 2);
    snap.task_index = task.u64();
    snap.task_seed = task.u64();
  }
  {
    rec::Line status = in.expect("status", 1);
    const std::string_view word = status.token();
    if (word != "partial" && word != "complete") {
      status.fail("must be 'partial' or 'complete'");
    }
    snap.complete = word == "complete";
  }
  // Counts are checked against the lines left before they size a
  // reserve().
  const std::uint64_t n_series = in.block("series");
  snap.series.reserve(n_series);
  for (std::uint64_t i = 0; i < n_series; ++i) {
    snap.series.push_back(shard::get_measurement(in));
  }
  {
    rec::Line aux = in.expect("aux");
    snap.aux = aux.f64s();
    if (!snap.aux.empty() && !snap.complete) {
      aux.fail("partial snapshots must not carry aux values");
    }
  }
  // The state block keeps each model line verbatim: `s` plus the line.
  rec::Line state = in.expect("state", 1);
  const std::uint64_t n_state = in.records(state);
  snap.state.reserve(n_state);
  for (std::uint64_t i = 0; i < n_state; ++i) {
    rec::Line s = in.expect("s");
    if (s.arity() == 0) s.fail("empty model state line");
    snap.state.emplace_back(s.rest());
  }
  if (!snap.complete && snap.state.empty()) {
    state.fail("partial snapshots must carry model state");
  }
  in.expect("checksum", 1);  // verified before parsing; consume in sequence
  in.expect("end", 0);
  in.finish();
  return snap;
}

}  // namespace

std::uint64_t spec_hash(const shard::JobSpec& job) {
  // Hash the job's own wire encoding with no results: every field a
  // merge's check_same_job compares (model, grid, protocol, params, the
  // dense task table) is covered, and the hash changes exactly when the
  // wire would consider the spec a different job.
  return fnv1a(shard::encode(job, {}));
}

std::string task_filename(std::string_view job, std::uint64_t task_index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "-task%06llu.sopsckpt",
                static_cast<unsigned long long>(task_index));
  return std::string(job) + buf;
}

std::string encode(const Snapshot& snap) {
  if (!rec::is_token(snap.job)) {
    throw std::invalid_argument(
        "checkpoint: job name must be one nonempty token");
  }
  if (!rec::is_token(snap.model)) {
    throw std::invalid_argument(
        "checkpoint: model tag must be one nonempty token");
  }
  if (!snap.complete && snap.state.empty()) {
    throw std::invalid_argument(
        "checkpoint: partial snapshots must carry model state");
  }
  for (const std::string& line : snap.state) {
    if (!rec::is_line(line)) {
      throw std::invalid_argument(
          "checkpoint: model state lines must be single-space token lines");
    }
  }
  std::string out;
  out.reserve(256 + 96 * snap.series.size() + 24 * snap.state.size());

  out += kMagic;
  out += " v";
  rec::put_u64(out, kSnapshotVersion);
  out += "\njob ";
  out += snap.job;
  out += "\nmodel ";
  out += snap.model;
  out += "\nspec ";
  rec::put_hex16(out, snap.spec_hash);
  out += "\ntask ";
  rec::put_u64(out, snap.task_index);
  out += ' ';
  rec::put_u64(out, snap.task_seed);
  out += "\nstatus ";
  out += snap.complete ? "complete" : "partial";
  out += "\nseries ";
  rec::put_u64(out, snap.series.size());
  for (const core::Measurement& m : snap.series) {
    shard::put_measurement(out, m);
  }
  out += "\naux ";
  rec::put_counted(out, snap.aux);
  out += "\nstate ";
  rec::put_u64(out, snap.state.size());
  for (const std::string& line : snap.state) {
    out += "\ns ";
    out += line;
  }
  out += '\n';
  // The checksum covers every byte written so far — including the final
  // newline before the checksum line, so truncation at any line boundary
  // is also detected.
  const std::uint64_t checksum = fnv1a(out);
  out += "checksum ";
  rec::put_hex16(out, checksum);
  out += "\nend\n";
  return out;
}

Snapshot decode(std::string_view text) {
  verify_checksum(text);
  try {
    return parse(text);
  } catch (const rec::Error& e) {
    throw SnapshotError(std::string("checkpoint: ") + e.what());
  }
}

void write_snapshot(const std::string& path, const Snapshot& snap) {
  const std::string text = encode(snap);
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) io_error("open", tmp, errno);
  // The first call that fails names the error; fclose runs regardless.
  const char* failed = nullptr;
  int err = 0;
  const auto check = [&](bool ok, const char* call) {
    if (!ok && failed == nullptr) {
      failed = call;
      err = errno;
    }
  };
  check(std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
            std::fflush(out) == 0,
        "write");
#if !defined(_WIN32)
  // Durability before visibility: the data must be on disk before the
  // rename makes the snapshot the one a resume will trust.
  if (failed == nullptr) check(::fsync(::fileno(out)) == 0, "fsync");
#endif
  check(std::fclose(out) == 0, "close");
  if (failed != nullptr) {
    std::remove(tmp.c_str());
    io_error(failed, tmp, err);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: rename '" + tmp + "' to '" + path +
                             "': " + std::strerror(err));
  }
}

SnapshotWriter::SnapshotWriter() : thread_([this] { run(); }) {}

SnapshotWriter::~SnapshotWriter() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_one();
  thread_.join();
  // Only a run that is already failing leaves an error no owner took
  // (its task stopped before its next hand-off); say so on stderr
  // rather than drop it.
  for (const auto& [path, slot] : slots_) {
    if (!slot.error) continue;
    try {
      std::rethrow_exception(slot.error);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s (after its task had stopped)\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "checkpoint: writing '%s' failed (after its task "
                   "had stopped)\n", path.c_str());
    }
  }
}

void SnapshotWriter::post(const std::string& path, Snapshot snap) {
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[path];
    if (slot.error) std::rethrow_exception(std::exchange(slot.error, {}));
    if (slot.queued) {
      // Keeps its place in pending_; the replaced snapshot is freed in
      // `snap` once the lock is released.
      std::swap(*slot.queued, snap);
      ++counts_.superseded;
    } else {
      slot.queued = std::move(snap);
      pending_.push_back(path);
      wake = true;  // a busy writer is not waiting, so this wakes nothing
    }
  }
  if (wake) wake_.notify_one();
}

void SnapshotWriter::write(const std::string& path, const Snapshot& snap) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = slots_.find(path);
    if (it != slots_.end()) {
      Slot& slot = it->second;
      if (slot.queued) {
        slot.queued.reset();
        std::erase(pending_, path);
        ++counts_.superseded;
      }
      idle_.wait(lock, [&slot] { return !slot.busy; });
      const std::exception_ptr error = std::move(slot.error);
      slots_.erase(it);
      if (error) std::rethrow_exception(error);
    }
  }
  write_snapshot(path, snap);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counts_.written;
}

SnapshotWriter::Counts SnapshotWriter::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

void SnapshotWriter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) return;  // stop_, and nothing left to write
    const std::string path = std::move(pending_.front());
    pending_.pop_front();
    // The slot outlives the write: write() erases it only once it is
    // no longer busy, and the map's rehashes keep references valid.
    Slot& slot = slots_.at(path);
    std::optional<Snapshot> snap = std::move(slot.queued);
    slot.queued.reset();
    slot.busy = true;
    lock.unlock();
    std::exception_ptr error;
    try {
      write_snapshot(path, *snap);
    } catch (...) {
      error = std::current_exception();
    }
    snap.reset();
    lock.lock();
    slot.busy = false;
    if (error) {
      slot.error = std::move(error);
    } else {
      ++counts_.written;
    }
    idle_.notify_all();
  }
}

Snapshot read_snapshot(const std::string& path) {
  const std::string text = rec::read_file(path, "checkpoint");
  try {
    return decode(text);
  } catch (const SnapshotError& e) {
    throw SnapshotError(std::string(e.what()) + " (in " + path + ")");
  }
}

Snapshot capture(const model::ChainModel& m, std::string job,
                 std::uint64_t spec_hash, const engine::Task& task,
                 bool complete, std::vector<core::Measurement> series,
                 std::vector<double> aux) {
  Snapshot snap;
  snap.job = std::move(job);
  snap.model = std::string(m.tag());
  snap.spec_hash = spec_hash;
  snap.task_index = task.index;
  snap.task_seed = task.seed;
  snap.complete = complete;
  snap.series = std::move(series);
  snap.aux = std::move(aux);
  snap.state = m.save_state();
  return snap;
}

Snapshot capture_stateless(std::string job, std::string model,
                           std::uint64_t spec_hash, const engine::Task& task,
                           std::vector<core::Measurement> series,
                           std::vector<double> aux) {
  Snapshot snap;
  snap.job = std::move(job);
  snap.model = std::move(model);
  snap.spec_hash = spec_hash;
  snap.task_index = task.index;
  snap.task_seed = task.seed;
  snap.complete = true;
  snap.series = std::move(series);
  snap.aux = std::move(aux);
  return snap;
}

std::unique_ptr<model::ChainModel> restore_model(const Snapshot& snap) {
  const model::Factory* factory = model::find_model(snap.model);
  if (factory == nullptr) {
    std::string names;
    for (const std::string& n : model::registered_models()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    throw SnapshotError("checkpoint: model '" + snap.model +
                        "' not registered (registered: " + names + ")");
  }
  if (snap.state.empty()) {
    throw SnapshotError(
        "checkpoint: snapshot carries no model state (stateless completion "
        "snapshot)");
  }
  try {
    return factory->restore(snap.state);
  } catch (const model::ModelError& e) {
    throw SnapshotError(std::string("checkpoint: ") + e.what());
  }
}

}  // namespace sops::checkpoint
