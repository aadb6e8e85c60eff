#include "src/model/separation.hpp"

#include <string_view>
#include <utility>

#include "src/core/coloring.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/registry.hpp"
#include "src/sops/invariants.hpp"

namespace sops::model {

namespace {

namespace rec = util::record;

class SeparationModel final : public ChainModel {
 public:
  explicit SeparationModel(core::SeparationChain chain)
      : chain_(std::move(chain)),
        pmin_(system::p_min(chain_.system().size())) {}

  [[nodiscard]] std::string_view tag() const noexcept override {
    return kSeparationTag;
  }

  void run(std::uint64_t iterations) override { chain_.run(iterations); }

  [[nodiscard]] std::uint64_t steps() const noexcept override {
    return chain_.counters().steps;
  }

  [[nodiscard]] core::Measurement measure() const override {
    return core::measure(chain_, pmin_);
  }

  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return {"iteration",       "perimeter", "edges",
            "hetero_edges",    "perimeter_ratio",
            "hetero_fraction"};
  }

  // State-line grammar:
  //   params <λ> <γ> <swaps 0|1>
  //   rng <hex16> ×4
  //   counters <u64> ×8
  //   particles <n>
  //   p <x> <y> <color> ×n
  [[nodiscard]] std::vector<std::string> save_state() const override {
    const core::SeparationChain::Counters& c = chain_.counters();
    std::vector<std::string> out;
    out.reserve(4 + chain_.system().size());
    std::string params = "params ";
    rec::put_double(params, chain_.params().lambda);
    params += ' ';
    rec::put_double(params, chain_.params().gamma);
    params += chain_.params().swaps_enabled ? " 1" : " 0";
    out.push_back(std::move(params));
    out.push_back(rng_line(chain_.rng_state()));
    std::string counters = "counters";
    for (const std::uint64_t v :
         {c.steps, c.move_proposals, c.moves_accepted, c.rejected_five,
          c.rejected_locality, c.rejected_metropolis, c.swap_proposals,
          c.swaps_accepted}) {
      counters += ' ';
      rec::put_u64(counters, v);
    }
    out.push_back(std::move(counters));
    put_particles(out, chain_.system());
    return out;
  }

  [[nodiscard]] const core::SeparationChain& chain() const noexcept {
    return chain_;
  }

 private:
  core::SeparationChain chain_;
  std::int64_t pmin_;
};

std::unique_ptr<ChainModel> restore_separation(
    std::span<const std::string> lines) {
  rec::Cursor in(lines);
  rec::Line p = in.expect("params", 3);
  const core::Params params{p.f64(), p.f64(), p.flag()};
  const util::Rng::State rng = read_rng(in);
  rec::Line cnt = in.expect("counters", 8);
  core::SeparationChain::Counters c;
  for (std::uint64_t* v :
       {&c.steps, &c.move_proposals, &c.moves_accepted, &c.rejected_five,
        &c.rejected_locality, &c.rejected_metropolis, &c.swap_proposals,
        &c.swaps_accepted}) {
    *v = cnt.u64();
  }
  system::ParticleSystem sys = read_particles(in, system::kMaxColors, "color");
  in.finish();

  // The seed only re-derives the ctor RNG, whose state is immediately
  // overwritten with the saved mid-stream state.
  core::SeparationChain chain(std::move(sys), params, c.steps + 1);
  chain.set_rng_state(rng);
  chain.set_counters(c);
  return make_separation(std::move(chain));
}

std::unique_ptr<ChainModel> build_separation(
    std::span<const std::string> params, const TaskPoint& t) {
  std::uint64_t blob = 0;
  std::uint64_t n_colors = 2;
  std::uint64_t swaps = 1;
  bool blob_set = false;
  for (const std::string& p : params) {
    const std::size_t eq = p.find('=');
    const std::string key = eq == std::string::npos ? p : p.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : p.substr(eq + 1);
    if (key == "blob") {
      blob = param_u64("params: blob", value);
      blob_set = true;
    } else if (key == "colors") {
      n_colors = param_u64("params: colors", value);
    } else if (key == "swaps") {
      swaps = param_u64("params: swaps", value);
    } else {
      throw ModelError("params: unknown key '" + key +
                       "' (recognized: blob, colors, swaps)");
    }
  }
  if (!blob_set) throw ModelError("params: missing required 'blob=' entry");
  if (blob == 0 || blob > 20000) {
    throw ModelError("params: blob: blob=" + std::to_string(blob) +
                     " outside the supported range [1, 20000]");
  }
  if (n_colors == 0 || n_colors > 16 || n_colors > blob) {
    throw ModelError("params: colors: colors=" + std::to_string(n_colors) +
                     " outside the supported range [1, min(16, blob)]");
  }
  if (swaps > 1) {
    throw ModelError("params: swaps: swaps=" + std::to_string(swaps) +
                     " must be 0 or 1");
  }
  util::Rng rng(t.seed);
  const auto nodes = lattice::random_blob(static_cast<std::size_t>(blob), rng);
  const auto colors = core::balanced_random_colors(
      static_cast<std::size_t>(blob), static_cast<std::size_t>(n_colors),
      rng);
  return make_separation(
      core::SeparationChain(system::ParticleSystem(nodes, colors),
                            core::Params{t.lambda, t.gamma, swaps == 1},
                            t.seed));
}

}  // namespace

std::unique_ptr<ChainModel> make_separation(core::SeparationChain chain) {
  return std::make_unique<SeparationModel>(std::move(chain));
}

const core::SeparationChain& separation_chain(const ChainModel& model) {
  const auto* sep = dynamic_cast<const SeparationModel*>(&model);
  if (sep == nullptr) {
    throw ModelError("separation_chain: model is '" + std::string(model.tag()) +
                     "', not separation");
  }
  return sep->chain();
}

void register_separation_model() {
  Factory factory;
  factory.tag = std::string(kSeparationTag);
  factory.build = build_separation;
  factory.restore = restore_separation;
  register_model(std::move(factory));
}

}  // namespace sops::model
