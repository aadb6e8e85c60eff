#include "src/ising/ising_model.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/lattice/shapes.hpp"
#include "src/model/registry.hpp"

namespace sops::ising {

namespace {

namespace rec = util::record;

class IsingChainModel final : public model::ChainModel {
 public:
  IsingChainModel(IsingModel ising, std::int32_t radius, std::uint64_t steps)
      : ising_(std::move(ising)), radius_(radius), steps_(steps) {}

  [[nodiscard]] std::string_view tag() const noexcept override {
    return kIsingTag;
  }

  void run(std::uint64_t iterations) override {
    ising_.glauber_steps(iterations);
    steps_ += iterations;
  }

  [[nodiscard]] std::uint64_t steps() const noexcept override {
    return steps_;
  }

  [[nodiscard]] core::Measurement measure() const override {
    // Slot mapping (see observable_names): magnetization rides the
    // perimeter_ratio slot, the disagreeing-edge fraction the
    // hetero_fraction slot; there is no geometric perimeter.
    const auto edges = static_cast<std::int64_t>(ising_.edge_count());
    const std::int64_t disagree = (edges - ising_.edge_correlation()) / 2;
    core::Measurement m;
    m.iteration = steps_;
    m.perimeter = 0;
    m.edges = edges;
    m.hetero_edges = disagree;
    m.perimeter_ratio = ising_.magnetization();
    m.hetero_fraction =
        edges > 0
            ? static_cast<double>(disagree) / static_cast<double>(edges)
            : 0.0;
    return m;
  }

  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return {"iteration",          "(unused)",      "edges",
            "disagreeing_edges",  "magnetization", "disagreeing_fraction"};
  }

  [[nodiscard]] std::vector<std::string> save_state() const override {
    std::vector<std::string> out;
    out.reserve(4);
    {
      std::string line = "params ";
      rec::put_i64(line, radius_);
      line += ' ';
      rec::put_double(line, ising_.coupling());
      out.push_back(std::move(line));
    }
    out.push_back(model::rng_line(ising_.rng_state()));
    {
      std::string line = "counters ";
      rec::put_u64(line, steps_);
      out.push_back(std::move(line));
    }
    {
      std::string line = "spins ";
      rec::put_u64(line, ising_.size());
      for (const std::int8_t s : ising_.spins()) {
        line += (s > 0) ? " 1" : " 0";
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  [[nodiscard]] const IsingModel& ising() const noexcept { return ising_; }

 private:
  IsingModel ising_;
  std::int32_t radius_;
  std::uint64_t steps_;
};

std::unique_ptr<model::ChainModel> restore_ising(
    std::span<const std::string> lines) {
  rec::Cursor in(lines);
  rec::Line params = in.expect("params", 2);
  const std::int64_t radius = params.i64();
  if (radius < 1 || radius > 256) params.fail("radius out of range");
  const double coupling = params.f64();
  const util::Rng::State rng = model::read_rng(in);
  const std::uint64_t steps = in.expect("counters", 1).u64();
  rec::Line spin_line = in.expect("spins");
  std::vector<std::int8_t> spins(spin_line.count());
  for (std::int8_t& s : spins) s = spin_line.flag() ? 1 : -1;
  in.finish();

  const std::vector<lattice::Node> region =
      lattice::hexagon(static_cast<std::int32_t>(radius));
  if (region.size() != spins.size()) {
    spin_line.fail("spin count does not match the region for this radius");
  }
  IsingModel ising(region, coupling, steps + 1);
  ising.set_spins(spins);
  ising.set_rng_state(rng);
  return make_ising(std::move(ising), static_cast<std::int32_t>(radius),
                    steps);
}

std::unique_ptr<model::ChainModel> build_ising(
    std::span<const std::string> params, const model::TaskPoint& t) {
  std::uint64_t radius = 0;
  bool radius_set = false;
  for (const std::string& p : params) {
    const std::size_t eq = p.find('=');
    const std::string key = eq == std::string::npos ? p : p.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : p.substr(eq + 1);
    if (key == "radius") {
      radius = model::param_u64("params: radius", value);
      radius_set = true;
    } else {
      throw model::ModelError("params: unknown key '" + key +
                              "' (recognized: radius)");
    }
  }
  if (!radius_set) {
    throw model::ModelError("params: missing required 'radius=' entry");
  }
  if (radius == 0 || radius > 64) {
    throw model::ModelError("params: radius: radius=" +
                            std::to_string(radius) +
                            " outside the supported range [1, 64]");
  }
  if (!(t.gamma > 0.0)) {
    throw model::ModelError(
        "params: gamma must be > 0 (the coupling is K = ln(gamma)/2)");
  }
  const double coupling = std::log(t.gamma) / 2.0;
  return make_ising(
      IsingModel(lattice::hexagon(static_cast<std::int32_t>(radius)),
                 coupling, t.seed),
      static_cast<std::int32_t>(radius));
}

}  // namespace

std::unique_ptr<model::ChainModel> make_ising(IsingModel ising,
                                              std::int32_t radius,
                                              std::uint64_t steps) {
  return std::make_unique<IsingChainModel>(std::move(ising), radius, steps);
}

const IsingModel& ising_model(const model::ChainModel& m) {
  const auto* adapter = dynamic_cast<const IsingChainModel*>(&m);
  if (adapter == nullptr) {
    throw model::ModelError("ising_model: model is '" + std::string(m.tag()) +
                            "', not ising");
  }
  return adapter->ising();
}

void register_ising_model() {
  model::Factory factory;
  factory.tag = std::string(kIsingTag);
  factory.build = build_ising;
  factory.restore = restore_ising;
  model::register_model(std::move(factory));
}

}  // namespace sops::ising
