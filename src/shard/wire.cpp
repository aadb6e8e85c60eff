#include "src/shard/wire.hpp"

#include <cstdio>

namespace sops::shard {

namespace rec = util::record;

namespace {

constexpr std::string_view kMagic = "sops-shard-wire";

void check_encodable(const JobSpec& job,
                     std::span<const engine::TaskResult> results,
                     const Manifest& manifest) {
  if (!rec::is_token(job.name)) {
    throw std::invalid_argument("wire: job name must be one nonempty token");
  }
  if (!rec::is_token(job.model)) {
    throw std::invalid_argument("wire: model tag must be one nonempty token");
  }
  for (const std::string& p : job.params) {
    if (!rec::is_token(p)) {
      throw std::invalid_argument("wire: params must be nonempty tokens: '" +
                                  p + "'");
    }
  }
  for (std::size_t i = 0; i < job.tasks.size(); ++i) {
    if (job.tasks[i].index != i) {
      throw std::invalid_argument(
          "wire: task table must be dense (tasks[i].index == i)");
    }
  }
  if (manifest.begin > manifest.end || manifest.end > job.tasks.size()) {
    throw std::invalid_argument(
        "wire: manifest range must satisfy begin <= end <= tasks");
  }
  std::uint64_t prev = 0;
  bool first = true;
  for (const engine::TaskResult& r : results) {
    if (r.task.index >= job.tasks.size()) {
      throw std::invalid_argument("wire: result task index outside the table");
    }
    if (r.task.index < manifest.begin || r.task.index >= manifest.end) {
      throw std::invalid_argument(
          "wire: result task index outside the manifest range");
    }
    if (!first && r.task.index <= prev) {
      throw std::invalid_argument(
          "wire: results must be in strictly increasing task order");
    }
    prev = r.task.index;
    first = false;
  }
}

ShardFile parse(std::string_view text) {
  rec::Cursor in(text);
  in.header(kMagic, kWireVersion, "wire");
  ShardFile file;
  JobSpec& job = file.job;
  job.name = in.expect("job", 1).token();
  job.model = in.expect("model", 1).token();
  {
    rec::Line mf = in.expect("manifest", 3);
    file.manifest = Manifest{mf.u64(), mf.u64(), mf.u64()};
    if (file.manifest.begin > file.manifest.end) {
      mf.fail("range must satisfy begin <= end");
    }
  }
  job.grid.lambdas = in.expect("grid.lambdas").f64s();
  job.grid.gammas = in.expect("grid.gammas").f64s();
  job.grid.replicas = in.expect("grid.replicas", 1).u64();
  job.grid.base_seed = in.expect("grid.base_seed", 1).u64();
  job.grid.derive_seeds = in.expect("grid.derive_seeds", 1).flag();
  job.checkpoints = in.expect("proto.checkpoints").u64s();
  job.burn_in = in.expect("proto.burn_in", 1).u64();
  job.interval = in.expect("proto.interval", 1).u64();
  job.samples = in.expect("proto.samples", 1).u64();

  // Every count below is checked against the lines left before it
  // sizes a reserve().
  const std::uint64_t n_params = in.block("params");
  job.params.reserve(n_params);
  for (std::uint64_t i = 0; i < n_params; ++i) {
    job.params.emplace_back(in.expect("p", 1).token());
  }

  rec::Line tasks = in.expect("tasks", 1);
  const std::uint64_t n_tasks = in.records(tasks);
  if (file.manifest.end > n_tasks) {
    tasks.fail("manifest range extends past the task table");
  }
  job.tasks.reserve(n_tasks);
  for (std::uint64_t i = 0; i < n_tasks; ++i) {
    rec::Line t = in.expect("t", 7);
    engine::Task task;
    task.index = t.u64();
    if (task.index != i) t.fail("task table must be dense and in order");
    task.lambda_index = t.u64();
    task.gamma_index = t.u64();
    task.replica = t.u64();
    task.lambda = t.f64();
    task.gamma = t.f64();
    task.seed = t.u64();
    job.tasks.push_back(task);
  }

  const std::uint64_t n_results = in.block("results");
  file.results.reserve(n_results);
  for (std::uint64_t i = 0; i < n_results; ++i) {
    rec::Line r = in.expect("r", 4);
    const std::uint64_t index = r.u64();
    if (index >= job.tasks.size()) {
      r.fail("result task index outside the task table");
    }
    if (index < file.manifest.begin || index >= file.manifest.end) {
      r.fail("result task index outside the manifest range");
    }
    if (i > 0 && index <= file.results.back().task.index) {
      r.fail("result records must be in strictly increasing task order");
    }
    engine::TaskResult& result = file.results.emplace_back();
    result.task = job.tasks[index];
    result.steps = r.u64();
    const std::uint64_t n_series = in.records(r);
    result.series.reserve(n_series);
    for (std::uint64_t s = 0; s < n_series; ++s) {
      result.series.push_back(get_measurement(in));
    }
    if (const std::uint64_t naux = r.u64(); naux > 0) {
      rec::Line a = in.expect("a", naux);
      result.aux.reserve(naux);
      while (a.left() > 0) result.aux.push_back(a.f64());
    }
  }
  in.expect("end", 0);
  in.finish();
  return file;
}

}  // namespace

void put_measurement(std::string& out, const core::Measurement& m) {
  out += "\nm ";
  rec::put_u64(out, m.iteration);
  out += ' ';
  rec::put_i64(out, m.perimeter);
  out += ' ';
  rec::put_i64(out, m.edges);
  out += ' ';
  rec::put_i64(out, m.hetero_edges);
  out += ' ';
  rec::put_double(out, m.perimeter_ratio);
  out += ' ';
  rec::put_double(out, m.hetero_fraction);
}

core::Measurement get_measurement(rec::Cursor& in) {
  rec::Line line = in.expect("m", 6);
  core::Measurement m;
  m.iteration = line.u64();
  m.perimeter = line.i64();
  m.edges = line.i64();
  m.hetero_edges = line.i64();
  m.perimeter_ratio = line.f64();
  m.hetero_fraction = line.f64();
  return m;
}

std::string encode(const JobSpec& job,
                   std::span<const engine::TaskResult> results,
                   const std::optional<Manifest>& manifest) {
  const Manifest mf =
      manifest.value_or(Manifest{1, 0, job.tasks.size()});
  check_encodable(job, results, mf);
  std::string out;
  out.reserve(256 + 96 * job.tasks.size() + 96 * results.size());
  const auto field = [&out](std::string_view key, std::uint64_t v) {
    out += '\n';
    out += key;
    out += ' ';
    rec::put_u64(out, v);
  };

  out += kMagic;
  out += " v";
  rec::put_u64(out, kWireVersion);
  out += "\njob ";
  out += job.name;
  out += "\nmodel ";
  out += job.model;
  field("manifest", mf.n_shards);
  out += ' ';
  rec::put_u64(out, mf.begin);
  out += ' ';
  rec::put_u64(out, mf.end);
  out += "\ngrid.lambdas ";
  rec::put_counted(out, job.grid.lambdas);
  out += "\ngrid.gammas ";
  rec::put_counted(out, job.grid.gammas);
  field("grid.replicas", job.grid.replicas);
  field("grid.base_seed", job.grid.base_seed);
  field("grid.derive_seeds", job.grid.derive_seeds ? 1 : 0);
  out += "\nproto.checkpoints ";
  rec::put_counted(out, job.checkpoints);
  field("proto.burn_in", job.burn_in);
  field("proto.interval", job.interval);
  field("proto.samples", job.samples);

  field("params", job.params.size());
  for (const std::string& p : job.params) {
    out += "\np ";
    out += p;
  }

  field("tasks", job.tasks.size());
  for (const engine::Task& t : job.tasks) {
    field("t", t.index);
    out += ' ';
    rec::put_u64(out, t.lambda_index);
    out += ' ';
    rec::put_u64(out, t.gamma_index);
    out += ' ';
    rec::put_u64(out, t.replica);
    out += ' ';
    rec::put_double(out, t.lambda);
    out += ' ';
    rec::put_double(out, t.gamma);
    out += ' ';
    rec::put_u64(out, t.seed);
  }

  field("results", results.size());
  for (const engine::TaskResult& r : results) {
    field("r", r.task.index);
    out += ' ';
    rec::put_u64(out, r.steps);
    out += ' ';
    rec::put_u64(out, r.series.size());
    out += ' ';
    rec::put_u64(out, r.aux.size());
    for (const core::Measurement& m : r.series) put_measurement(out, m);
    if (!r.aux.empty()) {
      out += "\na";
      for (const double v : r.aux) {
        out += ' ';
        rec::put_double(out, v);
      }
    }
  }
  out += "\nend\n";
  return out;
}

ShardFile decode(std::string_view text) {
  try {
    return parse(text);
  } catch (const rec::Error& e) {
    throw WireError(std::string("wire: ") + e.what());
  }
}

void write_shard_file(const std::string& path, const JobSpec& job,
                      std::span<const engine::TaskResult> results,
                      const std::optional<Manifest>& manifest) {
  const std::string text = encode(job, results, manifest);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("wire: cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), out);
  const bool ok = (written == text.size()) && (std::fclose(out) == 0);
  if (!ok) {
    throw std::runtime_error("wire: short write to '" + path + "'");
  }
}

ShardFile read_shard_file(const std::string& path) {
  const std::string text = rec::read_file(path, "wire");
  try {
    return decode(text);
  } catch (const WireError& e) {
    throw WireError(std::string(e.what()) + " (in " + path + ")");
  }
}

}  // namespace sops::shard
