#include "src/model/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace sops::model {

namespace rec = util::record;

namespace {

constexpr std::int64_t kCoordinateLimit = std::int64_t{1} << 30;

}  // namespace

std::string rng_line(const util::Rng::State& state) {
  std::string line = "rng";
  for (const std::uint64_t w : state) {
    line += ' ';
    rec::put_hex16(line, w);
  }
  return line;
}

util::Rng::State read_rng(rec::Cursor& in) {
  rec::Line line = in.expect("rng", 4);
  util::Rng::State state{};
  for (std::uint64_t& w : state) w = line.hex16();
  if (state == util::Rng::State{}) {
    line.fail(
        "state is all-zero — not a live chain state (stateless completion "
        "snapshot, or corrupt)");
  }
  return state;
}

void put_particles(std::vector<std::string>& out,
                   const system::ParticleSystem& sys) {
  std::string head = "particles ";
  rec::put_u64(head, sys.size());
  out.push_back(std::move(head));
  for (std::size_t i = 0; i < sys.size(); ++i) {
    std::string line = "p ";
    rec::put_i64(line, sys.positions()[i].x);
    line += ' ';
    rec::put_i64(line, sys.positions()[i].y);
    line += ' ';
    rec::put_u64(line, sys.colors()[i]);
    out.push_back(std::move(line));
  }
}

system::ParticleSystem read_particles(rec::Cursor& in,
                                      std::uint64_t n_colors,
                                      std::string_view color_name) {
  rec::Line head = in.expect("particles", 1);
  const std::uint64_t count = in.records(head);
  if (count == 0) head.fail("state carries no particles");
  std::vector<lattice::Node> positions;
  std::vector<system::Color> colors;
  positions.reserve(count);
  colors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    rec::Line p = in.expect("p", 3);
    const std::int64_t x = p.i64();
    const std::int64_t y = p.i64();
    if (x <= -kCoordinateLimit || x >= kCoordinateLimit ||
        y <= -kCoordinateLimit || y >= kCoordinateLimit) {
      p.fail("particle coordinate beyond +-2^30");
    }
    const std::uint64_t color = p.u64();
    if (color >= n_colors) {
      p.fail("particle " + std::string(color_name) + " out of range");
    }
    positions.push_back(lattice::Node{static_cast<std::int32_t>(x),
                                      static_cast<std::int32_t>(y)});
    colors.push_back(static_cast<system::Color>(color));
  }
  return system::ParticleSystem(positions, colors);
}

std::uint64_t param_u64(std::string_view field, std::string_view token) {
  const std::optional<std::uint64_t> v = rec::parse_u64(token);
  if (!v) {
    throw ModelError(std::string(field) + ": expected unsigned integer, got '" +
                     std::string(token) + "'");
  }
  return *v;
}

double param_double(std::string_view field, std::string_view token) {
  const std::optional<double> v = rec::parse_double(token);
  if (!v) {
    throw ModelError(std::string(field) + ": expected number, got '" +
                     std::string(token) + "'");
  }
  return *v;
}

std::vector<Target> checkpoint_targets(
    std::span<const std::uint64_t> checkpoints) {
  std::vector<Target> targets;
  targets.reserve(checkpoints.size());
  for (const std::uint64_t at : checkpoints) targets.push_back({at, true});
  return targets;
}

std::vector<Target> equilibrium_targets(std::uint64_t start,
                                        std::uint64_t burn_in,
                                        std::uint64_t interval,
                                        std::size_t samples) {
  if (samples == 0) return {{start + burn_in, false}};
  std::vector<Target> targets;
  targets.reserve(samples);
  for (std::size_t k = 0; k < samples; ++k) {
    targets.push_back({start + burn_in + k * interval, true});
  }
  return targets;
}

namespace {

// One step of the walk: measures every target from `next` on that the
// model has reached, appending to `series` and calling `on_sample`
// after each, then returns the steps left to the next target (0 once
// the list is done). A target behind the model throws
// std::invalid_argument; the model stays where it is.
std::uint64_t walk_step(
    ChainModel& model, std::span<const Target> targets, std::size_t& next,
    std::vector<core::Measurement>& series,
    const std::function<void(const ChainModel&)>& on_sample) {
  const std::uint64_t now = model.steps();
  for (; next < targets.size(); ++next) {
    const Target& t = targets[next];
    if (t.at > now) return t.at - now;
    if (t.at < now) {
      throw std::invalid_argument(
          "protocol: measurement targets must be nondecreasing");
    }
    if (!t.record) continue;
    series.push_back(model.measure());
    if (on_sample) on_sample(model);
  }
  return 0;
}

}  // namespace

std::vector<core::Measurement> walk(
    ChainModel& model, std::span<const Target> targets,
    const std::function<void(const ChainModel&)>& on_sample,
    std::vector<core::Measurement> series, std::uint64_t pause_every,
    const std::function<void(const ChainModel&,
                             const std::vector<core::Measurement>&)>&
        on_pause) {
  std::size_t next = series.size();
  while (const std::uint64_t left =
             walk_step(model, targets, next, series, on_sample)) {
    std::uint64_t now = model.steps();
    const std::uint64_t target = now + left;
    while (now < target) {
      std::uint64_t stop = target;
      if (pause_every != 0) {
        stop = std::min(stop, (now / pause_every + 1) * pause_every);
      }
      model.run(stop - now);
      now = stop;
      if (now < target && on_pause) on_pause(model, series);
    }
  }
  return series;
}

std::vector<core::Measurement> run_with_checkpoints(
    ChainModel& model, std::span<const std::uint64_t> checkpoints,
    const std::function<void(const ChainModel&, std::uint64_t)>&
        on_checkpoint) {
  std::function<void(const ChainModel&)> on_sample;
  if (on_checkpoint) {
    on_sample = [&](const ChainModel& m) { on_checkpoint(m, m.steps()); };
  }
  return walk(model, checkpoint_targets(checkpoints), on_sample);
}

std::vector<core::Measurement> sample_equilibrium(
    ChainModel& model, std::uint64_t burn_in, std::uint64_t interval,
    std::size_t samples,
    const std::function<void(const ChainModel&)>& on_sample) {
  return walk(model,
              equilibrium_targets(model.steps(), burn_in, interval, samples),
              on_sample);
}

}  // namespace sops::model
