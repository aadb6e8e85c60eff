// Span tracer, the forwarding ChainModel wrapper, and the per-layer
// metrics derived from what they record.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "src/checkpoint/snapshot.hpp"
#include "src/model/separation.hpp"
#include "src/sops/invariants.hpp"

extern char** environ;

namespace perfbench {

// ------------------------------------------------------------- utilities

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

// Aggregate CPU line of /proc/stat: busy ticks (everything but idle and
// iowait) and steal ticks.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  if (!in || cpu != "cpu") return {0, 0};
  // user nice system idle iowait irq softirq steal
  return {v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]};
}

}  // namespace

void StealMeter::start() {
  const auto [busy, steal] = cpu_ticks();
  busy_ = busy;
  steal_ = steal;
}

void StealMeter::stop() {
  const auto [busy, steal] = cpu_ticks();
  busy_ = busy - busy_;
  steal_ = steal - steal_;
}

double StealMeter::fraction() const {
  return busy_ > 0 ? static_cast<double>(steal_) / static_cast<double>(busy_)
                   : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::fail(const std::string& check, std::uint64_t ops) {
  if (std::find(failed_checks.begin(), failed_checks.end(), check) ==
      failed_checks.end()) {
    failed_checks.push_back(check);
  }
  failed += ops;
}

pid_t spawn_logged(const std::vector<std::string>& argv,
                   const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

int run_program(const std::vector<std::string>& argv,
                const std::string& log_path) {
  const pid_t pid = spawn_logged(argv, log_path);
  if (pid < 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --------------------------------------------------------------- tracing

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_++;
}

void Tracer::record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write '" + path + "'");
  for (const Span& s : spans()) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"req\":\"%s\","
                 "\"thread\":%d}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.req.c_str(), s.thread);
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int thread_ordinal() {
  static std::atomic<int> next{0};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent,
                       std::string req) {
  span_.id = tracer().next_id();
  span_.parent = parent;
  span_.name = name;
  span_.req = std::move(req);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = now_ns();
  span_.thread = thread_ordinal();
  tracer().record(std::move(span_));
}

void record_span(const char* name, std::uint64_t id, std::uint64_t parent,
                 std::string req, std::int64_t start_ns, std::int64_t end_ns) {
  if (!tracer().enabled()) return;
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.req = std::move(req);
  s.thread = thread_ordinal();
  tracer().record(std::move(s));
}

namespace {

void emit(const char* name, std::uint64_t parent, const std::string& req,
          std::int64_t start, std::int64_t end) {
  if (tracer().enabled()) {
    record_span(name, tracer().next_id(), parent, req, start, end);
  }
}

}  // namespace

// ------------------------------------------------- model-layer observation

void ModelTotals::add(const ModelTotals& o) {
  builds += o.builds;
  build_ns += o.build_ns;
  run_calls += o.run_calls;
  run_steps += o.run_steps;
  run_ns += o.run_ns;
  model_steps += o.model_steps;
  accepted += o.accepted;
  measure_calls += o.measure_calls;
  measure_ns += o.measure_ns;
  hook_calls += o.hook_calls;
  hook_ns += o.hook_ns;
  save_state_calls += o.save_state_calls;
  save_state_ns += o.save_state_ns;
  snapshot_write_ns += o.snapshot_write_ns;
  snapshot_bytes += o.snapshot_bytes;
}

void RunProbe::reset(std::size_t tasks, bool totals_too) {
  checks.assign(tasks, TaskCheck{});
  task_span.assign(tasks, 0);
  fanout_span = 0;
  if (!totals_too) return;
  std::lock_guard<std::mutex> lock(mutex);
  totals = ModelTotals{};
  task_spans.clear();
  fanouts.clear();
}

namespace {

// Request id of a batch task's spans. (Appending, rather than
// "t" + to_string(i), sidesteps a GCC 12 -Wrestrict false positive.)
std::string task_req(std::size_t index) {
  std::string req = "t";
  req += std::to_string(index);
  return req;
}

std::uint64_t accepted_of(const model::ChainModel& m) {
  const auto& c = model::separation_chain(m).counters();
  return c.moves_accepted + c.swaps_accepted;
}

/// Forwards every ChainModel call to the model the harness's own factory
/// built, timing the calls that belong to a layer: run (core), measure
/// (metrics), save_state (model), and the gap from a save_state to the
/// next run, which is the checkpoint runner encoding and durably
/// writing the snapshot.
class ObservedModel final : public model::ChainModel {
 public:
  ObservedModel(std::unique_ptr<model::ChainModel> inner, RunProbe& probe,
                std::size_t slot, std::uint64_t task_span,
                std::int64_t build_ns)
      : inner_(std::move(inner)),
        probe_(probe),
        slot_(slot),
        task_span_(task_span),
        req_(task_req(slot)),
        initial_steps_(inner_->steps()),
        initial_accepted_(accepted_of(*inner_)) {
    totals_.builds = 1;
    totals_.build_ns = static_cast<std::uint64_t>(build_ns);
    if (!probe.snapshot_dir.empty()) {
      snapshot_path_ = probe.snapshot_dir + "/" +
                       checkpoint::task_filename(probe.job_name, slot);
    }
  }

  ~ObservedModel() override { finish(); }

  [[nodiscard]] std::string_view tag() const noexcept override {
    return inner_->tag();
  }

  void run(std::uint64_t iterations) override {
    const std::int64_t t0 = now_ns();
    if (save_end_ != 0) {
      totals_.snapshot_write_ns += static_cast<std::uint64_t>(t0 - save_end_);
      emit("checkpoint.write", task_span_, req_, save_end_, t0);
      struct stat st{};
      if (!snapshot_path_.empty() && ::stat(snapshot_path_.c_str(), &st) == 0) {
        totals_.snapshot_bytes += static_cast<std::uint64_t>(st.st_size);
      }
      save_end_ = 0;
    }
    inner_->run(iterations);
    const std::int64_t t1 = now_ns();
    ++totals_.run_calls;
    totals_.run_steps += iterations;
    totals_.run_ns += static_cast<std::uint64_t>(t1 - t0);
    emit("core.run", task_span_, req_, t0, t1);
  }

  [[nodiscard]] std::uint64_t steps() const noexcept override {
    return inner_->steps();
  }

  [[nodiscard]] core::Measurement measure() const override {
    const std::int64_t t0 = now_ns();
    core::Measurement m = inner_->measure();
    const std::int64_t t1 = now_ns();
    ++totals_.measure_calls;
    totals_.measure_ns += static_cast<std::uint64_t>(t1 - t0);
    emit("metrics.measure", task_span_, req_, t0, t1);
    last_ = m;
    measured_ = true;
    return m;
  }

  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return inner_->observable_names();
  }

  [[nodiscard]] std::vector<std::string> save_state() const override {
    const std::int64_t t0 = now_ns();
    std::vector<std::string> lines = inner_->save_state();
    const std::int64_t t1 = now_ns();
    ++totals_.save_state_calls;
    totals_.save_state_ns += static_cast<std::uint64_t>(t1 - t0);
    emit("model.save_state", task_span_, req_, t0, t1);
    save_end_ = t1;
    return lines;
  }

  void set_pipeline_block(std::size_t block) override {
    inner_->set_pipeline_block(block);
  }

  [[nodiscard]] core::SeparationChain* band_chain() noexcept override {
    return inner_->band_chain();
  }

  void add_hook(std::int64_t start, std::int64_t end) const {
    ++totals_.hook_calls;
    totals_.hook_ns += static_cast<std::uint64_t>(end - start);
    emit("metrics.hook", task_span_, req_, start, end);
  }

  [[nodiscard]] const model::ChainModel& inner() const { return *inner_; }

 private:
  // The final-configuration checks: the step count (compared with the
  // budget by the caller), connectivity, and — without holes — the last
  // measured perimeter against the boundary walk.
  void finish() noexcept {
    TaskCheck check;
    check.seen = true;
    try {
      check.steps = inner_->steps();
      totals_.model_steps += check.steps - initial_steps_;
      totals_.accepted += accepted_of(*inner_) - initial_accepted_;
      const system::ParticleSystem& sys =
          model::separation_chain(*inner_).system();
      check.connected = system::is_connected(sys);
      check.hole = system::has_hole(sys);
      if (!measured_ || last_.iteration != check.steps) {
        check.error = "no measurement at the final step";
      } else {
        check.perimeter_ok =
            check.hole || last_.perimeter == system::perimeter_walk(sys);
      }
    } catch (const std::exception& e) {
      check.error = e.what();
    }
    std::lock_guard<std::mutex> lock(probe_.mutex);
    probe_.totals.add(totals_);
    if (slot_ < probe_.checks.size()) probe_.checks[slot_] = check;
  }

  std::unique_ptr<model::ChainModel> inner_;
  RunProbe& probe_;
  std::size_t slot_;
  std::uint64_t task_span_;
  std::string req_;
  std::string snapshot_path_;
  std::uint64_t initial_steps_;
  std::uint64_t initial_accepted_;
  // measure/save_state are const in the seam; the wrapper's bookkeeping
  // is not part of the model's observable state.
  mutable ModelTotals totals_;
  mutable core::Measurement last_;
  mutable bool measured_ = false;
  mutable std::int64_t save_end_ = 0;
};

}  // namespace

ModelFactory observed_factory(ModelFactory inner, RunProbe& probe) {
  return [inner = std::move(inner), &probe](const engine::Task& t)
             -> std::unique_ptr<model::ChainModel> {
    const std::uint64_t span = tracer().next_id();
    if (t.index < probe.task_span.size()) probe.task_span[t.index] = span;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<model::ChainModel> m = inner(t);
    const std::int64_t t1 = now_ns();
    emit("model.build", span, task_req(t.index), t0, t1);
    return std::make_unique<ObservedModel>(std::move(m), probe, t.index, span,
                                           t1 - t0);
  };
}

const model::ChainModel& unwrap(const model::ChainModel& m) {
  const auto* observed = dynamic_cast<const ObservedModel*>(&m);
  return observed != nullptr ? observed->inner() : m;
}

void record_hook(const model::ChainModel& m, std::int64_t start_ns) {
  const std::int64_t end = now_ns();
  if (const auto* observed = dynamic_cast<const ObservedModel*>(&m)) {
    observed->add_hook(start_ns, end);
  }
}

void TaskSink::record(const Record& r) {
  Span s;
  s.end_ns = now_ns();
  s.start_ns = s.end_ns - static_cast<std::int64_t>(r.wall_seconds * 1e9);
  s.id = r.task_index < probe_.task_span.size() &&
                 probe_.task_span[r.task_index] != 0
             ? probe_.task_span[r.task_index]
             : tracer().next_id();
  s.parent = probe_.fanout_span;
  s.name = "engine.task";
  s.req = task_req(r.task_index);
  s.thread = thread_ordinal();
  {
    std::lock_guard<std::mutex> lock(probe_.mutex);
    probe_.task_spans.push_back(s);
  }
  tracer().record(std::move(s));
}

// ------------------------------------------------------ per-layer metrics

void add_layer_metrics(const RunProbe& probe, unsigned threads, Result& out) {
  const ModelTotals& t = probe.totals;
  auto& m = out.metrics;
  const double run_s = seconds(static_cast<std::int64_t>(t.run_ns));
  m["core.steps"] = static_cast<double>(t.model_steps);
  m["core.run_calls"] = static_cast<double>(t.run_calls);
  m["core.busy_s"] = run_s;
  m["core.steps_per_busy_s"] =
      run_s > 0.0 ? static_cast<double>(t.run_steps) / run_s : 0.0;
  m["core.accept_frac"] =
      t.model_steps > 0 ? static_cast<double>(t.accepted) /
                              static_cast<double>(t.model_steps)
                        : 0.0;
  m["core.band_steps_frac"] =
      t.model_steps > 0 ? static_cast<double>(t.model_steps - t.run_steps) /
                              static_cast<double>(t.model_steps)
                        : 0.0;

  // Engine, from the engine.task spans inside each fan-out. A fan-out's
  // tail is the stretch at its end in which at least one worker had no
  // task left to run.
  double fanout_s = 0.0, busy = 0.0, tail = 0.0;
  for (const auto& [start, end] : probe.fanouts) {
    fanout_s += seconds(end - start);
    std::map<int, std::int64_t> last_end;
    std::int64_t last = start;
    for (const Span& s : probe.task_spans) {
      if (s.end_ns < start || s.end_ns > end) continue;
      busy += seconds(s.end_ns - s.start_ns);
      last_end[s.thread] = std::max(last_end[s.thread], s.end_ns);
      last = std::max(last, s.end_ns);
    }
    std::int64_t first_idle = last;
    if (last_end.size() < threads) {
      first_idle = start;
    } else {
      for (const auto& [thread, e] : last_end) {
        first_idle = std::min(first_idle, e);
      }
    }
    tail += seconds(end - first_idle);
  }
  m["engine.tasks"] = static_cast<double>(probe.task_spans.size());
  m["engine.fanout_s"] = fanout_s;
  m["engine.task_busy_s"] = busy;
  m["engine.idle_frac"] =
      fanout_s > 0.0 ? 1.0 - busy / (threads * fanout_s) : 0.0;
  m["engine.tail_s"] = tail;

  m["metrics.measure_calls"] = static_cast<double>(t.measure_calls);
  m["metrics.measure_busy_s"] =
      seconds(static_cast<std::int64_t>(t.measure_ns));
  m["metrics.hook_calls"] = static_cast<double>(t.hook_calls);
  m["metrics.hook_busy_s"] = seconds(static_cast<std::int64_t>(t.hook_ns));
  m["model.build_calls"] = static_cast<double>(t.builds);
  m["model.build_busy_s"] = seconds(static_cast<std::int64_t>(t.build_ns));
  m["model.save_state_calls"] = static_cast<double>(t.save_state_calls);
  m["model.save_state_busy_s"] =
      seconds(static_cast<std::int64_t>(t.save_state_ns));
  m["checkpoint.bytes"] = static_cast<double>(t.snapshot_bytes);
  m["checkpoint.write_busy_s"] =
      seconds(static_cast<std::int64_t>(t.snapshot_write_ns));
}

}  // namespace perfbench
