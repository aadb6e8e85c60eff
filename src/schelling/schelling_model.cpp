#include "src/schelling/schelling_model.hpp"

#include <string>
#include <utility>
#include <vector>

#include "src/model/registry.hpp"

namespace sops::schelling {

namespace {

namespace rec = util::record;

class SchellingChainModel final : public model::ChainModel {
 public:
  SchellingChainModel(SchellingModel schelling, std::int32_t radius,
                      double vacancy, std::uint64_t steps)
      : schelling_(std::move(schelling)),
        radius_(radius),
        vacancy_(vacancy),
        steps_(steps) {}

  [[nodiscard]] std::string_view tag() const noexcept override {
    return kSchellingTag;
  }

  void run(std::uint64_t iterations) override {
    schelling_.run(iterations);
    steps_ += iterations;
  }

  [[nodiscard]] std::uint64_t steps() const noexcept override {
    return steps_;
  }

  [[nodiscard]] core::Measurement measure() const override {
    // Slot mapping (see observable_names): the segregation index rides
    // the perimeter_ratio slot, the unhappy-agent fraction the
    // hetero_fraction slot; the geometric slots are unused.
    core::Measurement m;
    m.iteration = steps_;
    m.perimeter = 0;
    m.edges = 0;
    m.hetero_edges = 0;
    m.perimeter_ratio = schelling_.segregation_index();
    m.hetero_fraction = schelling_.unhappy_fraction();
    return m;
  }

  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return {"iteration", "(unused)",          "(unused)",
            "(unused)",  "segregation_index", "unhappy_fraction"};
  }

  [[nodiscard]] std::vector<std::string> save_state() const override {
    std::vector<std::string> out;
    out.reserve(5);
    {
      std::string line = "params ";
      rec::put_i64(line, radius_);
      line += ' ';
      rec::put_double(line, vacancy_);
      line += ' ';
      rec::put_double(line, schelling_.tolerance());
      out.push_back(std::move(line));
    }
    out.push_back(model::rng_line(schelling_.rng_state()));
    {
      std::string line = "counters ";
      rec::put_u64(line, steps_);
      out.push_back(std::move(line));
    }
    {
      std::string line = "sites ";
      rec::put_u64(line, schelling_.site_count());
      for (const Site s : schelling_.sites()) {
        line += ' ';
        rec::put_u64(line, static_cast<std::uint64_t>(s));
      }
      out.push_back(std::move(line));
    }
    {
      std::string line = "vacancies ";
      rec::put_u64(line, schelling_.vacancies().size());
      for (const std::uint32_t v : schelling_.vacancies()) {
        line += ' ';
        rec::put_u64(line, v);
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  [[nodiscard]] const SchellingModel& schelling() const noexcept {
    return schelling_;
  }

 private:
  SchellingModel schelling_;
  std::int32_t radius_;
  double vacancy_;
  std::uint64_t steps_;
};

std::unique_ptr<model::ChainModel> restore_schelling(
    std::span<const std::string> lines) {
  rec::Cursor in(lines);
  rec::Line params = in.expect("params", 3);
  const std::int64_t radius = params.i64();
  if (radius < 1 || radius > 256) params.fail("radius out of range");
  const double vacancy = params.f64();
  const double tolerance = params.f64();
  const util::Rng::State rng = model::read_rng(in);
  const std::uint64_t steps = in.expect("counters", 1).u64();
  rec::Line site_line = in.expect("sites");
  std::vector<Site> sites;
  for (const std::uint64_t v : site_line.u64s()) {
    if (v > 2) site_line.fail("site values must be 0, 1, or 2");
    sites.push_back(static_cast<Site>(v));
  }
  rec::Line vacancy_line = in.expect("vacancies");
  std::vector<std::uint32_t> vacancies;
  for (const std::uint64_t v : vacancy_line.u64s()) {
    if (v >= sites.size()) vacancy_line.fail("index outside the site vector");
    vacancies.push_back(static_cast<std::uint32_t>(v));
  }
  in.finish();

  SchellingModel schelling(static_cast<std::int32_t>(radius), vacancy,
                           tolerance, steps + 1);
  if (schelling.site_count() != sites.size()) {
    site_line.fail("site count does not match the region for this radius");
  }
  schelling.set_sites(sites, vacancies);
  schelling.set_rng_state(rng);
  return make_schelling(std::move(schelling),
                        static_cast<std::int32_t>(radius), vacancy, steps);
}

std::unique_ptr<model::ChainModel> build_schelling(
    std::span<const std::string> params, const model::TaskPoint& t) {
  std::uint64_t radius = 0;
  double vacancy = 0.0;
  bool radius_set = false;
  bool vacancy_set = false;
  for (const std::string& p : params) {
    const std::size_t eq = p.find('=');
    const std::string key = eq == std::string::npos ? p : p.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : p.substr(eq + 1);
    if (key == "radius") {
      radius = model::param_u64("params: radius", value);
      radius_set = true;
    } else if (key == "vacancy") {
      vacancy = model::param_double("params: vacancy", value);
      vacancy_set = true;
    } else {
      throw model::ModelError("params: unknown key '" + key +
                              "' (recognized: radius, vacancy)");
    }
  }
  if (!radius_set) {
    throw model::ModelError("params: missing required 'radius=' entry");
  }
  if (!vacancy_set) {
    throw model::ModelError("params: missing required 'vacancy=' entry");
  }
  if (radius == 0 || radius > 64) {
    throw model::ModelError("params: radius: radius=" +
                            std::to_string(radius) +
                            " outside the supported range [1, 64]");
  }
  if (!(vacancy > 0.0) || !(vacancy < 1.0)) {
    throw model::ModelError("params: vacancy: must be strictly inside (0, 1)");
  }
  if (t.gamma < 0.0 || t.gamma > 1.0) {
    throw model::ModelError(
        "params: gamma carries the tolerance and must be in [0, 1]");
  }
  return make_schelling(SchellingModel(static_cast<std::int32_t>(radius),
                                       vacancy, t.gamma, t.seed),
                        static_cast<std::int32_t>(radius), vacancy);
}

}  // namespace

std::unique_ptr<model::ChainModel> make_schelling(SchellingModel schelling,
                                                  std::int32_t radius,
                                                  double vacancy,
                                                  std::uint64_t steps) {
  return std::make_unique<SchellingChainModel>(std::move(schelling), radius,
                                               vacancy, steps);
}

const SchellingModel& schelling_model(const model::ChainModel& m) {
  const auto* adapter = dynamic_cast<const SchellingChainModel*>(&m);
  if (adapter == nullptr) {
    throw model::ModelError("schelling_model: model is '" +
                            std::string(m.tag()) + "', not schelling");
  }
  return adapter->schelling();
}

void register_schelling_model() {
  model::Factory factory;
  factory.tag = std::string(kSchellingTag);
  factory.build = build_schelling;
  factory.restore = restore_schelling;
  model::register_model(std::move(factory));
}

}  // namespace sops::schelling
