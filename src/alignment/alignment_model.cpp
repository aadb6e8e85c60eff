#include "src/alignment/alignment_model.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/registry.hpp"
#include "src/sops/invariants.hpp"

namespace sops::alignment {

namespace {

namespace rec = util::record;

class AlignmentModel final : public model::ChainModel {
 public:
  explicit AlignmentModel(AlignmentChain chain)
      : chain_(std::move(chain)),
        pmin_(system::p_min(chain_.system().size())) {}

  [[nodiscard]] std::string_view tag() const noexcept override {
    return kAlignmentTag;
  }

  void run(std::uint64_t iterations) override { chain_.run(iterations); }

  [[nodiscard]] std::uint64_t steps() const noexcept override {
    return chain_.counters().steps;
  }

  [[nodiscard]] core::Measurement measure() const override {
    // Same slot semantics as the separation model: hetero edges are the
    // unaligned (orientation-disagreeing) edges, so hetero_fraction is
    // the unaligned-edge fraction and 0 means fully aligned.
    const system::ParticleSystem& sys = chain_.system();
    core::Measurement m;
    m.iteration = chain_.counters().steps;
    m.perimeter = sys.perimeter_by_identity();
    m.edges = sys.edge_count();
    m.hetero_edges = sys.hetero_edge_count();
    m.perimeter_ratio =
        pmin_ > 0 ? static_cast<double>(m.perimeter) /
                        static_cast<double>(pmin_)
                  : 1.0;
    m.hetero_fraction =
        m.edges > 0 ? static_cast<double>(m.hetero_edges) /
                          static_cast<double>(m.edges)
                    : 0.0;
    return m;
  }

  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return {"iteration",       "perimeter",       "edges",
            "unaligned_edges", "perimeter_ratio", "unaligned_fraction"};
  }

  // State-line grammar: the separation model's, with the rotation
  // counters in the last two counter slots and orientations as colors.
  //   params <λ> <γ>
  //   rng <hex16> ×4
  //   counters <u64> ×8
  //   particles <n>
  //   p <x> <y> <orientation> ×n
  [[nodiscard]] std::vector<std::string> save_state() const override {
    const AlignmentChain::Counters& c = chain_.counters();
    std::vector<std::string> out;
    out.reserve(4 + chain_.system().size());
    std::string params = "params ";
    rec::put_double(params, chain_.params().lambda);
    params += ' ';
    rec::put_double(params, chain_.params().gamma);
    out.push_back(std::move(params));
    out.push_back(model::rng_line(chain_.rng_state()));
    std::string counters = "counters";
    for (const std::uint64_t v :
         {c.steps, c.move_proposals, c.moves_accepted, c.rejected_five,
          c.rejected_locality, c.rejected_metropolis, c.rotation_proposals,
          c.rotations_accepted}) {
      counters += ' ';
      rec::put_u64(counters, v);
    }
    out.push_back(std::move(counters));
    model::put_particles(out, chain_.system());
    return out;
  }

  [[nodiscard]] const AlignmentChain& chain() const noexcept { return chain_; }

 private:
  AlignmentChain chain_;
  std::int64_t pmin_;
};

std::unique_ptr<model::ChainModel> restore_alignment(
    std::span<const std::string> lines) {
  rec::Cursor in(lines);
  rec::Line p = in.expect("params", 2);
  const Params params{p.f64(), p.f64()};
  const util::Rng::State rng = model::read_rng(in);
  rec::Line cnt = in.expect("counters", 8);
  AlignmentChain::Counters c;
  for (std::uint64_t* v :
       {&c.steps, &c.move_proposals, &c.moves_accepted, &c.rejected_five,
        &c.rejected_locality, &c.rejected_metropolis, &c.rotation_proposals,
        &c.rotations_accepted}) {
    *v = cnt.u64();
  }
  system::ParticleSystem sys =
      model::read_particles(in, kOrientations, "orientation");
  in.finish();

  AlignmentChain chain(std::move(sys), params, c.steps + 1);
  chain.set_rng_state(rng);
  chain.set_counters(c);
  return make_alignment(std::move(chain));
}

std::unique_ptr<model::ChainModel> build_alignment(
    std::span<const std::string> params, const model::TaskPoint& t) {
  std::uint64_t blob = 0;
  bool blob_set = false;
  for (const std::string& p : params) {
    const std::size_t eq = p.find('=');
    const std::string key = eq == std::string::npos ? p : p.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : p.substr(eq + 1);
    if (key == "blob") {
      blob = model::param_u64("params: blob", value);
      blob_set = true;
    } else {
      throw model::ModelError("params: unknown key '" + key +
                              "' (recognized: blob)");
    }
  }
  if (!blob_set) {
    throw model::ModelError("params: missing required 'blob=' entry");
  }
  if (blob == 0 || blob > 20000) {
    throw model::ModelError("params: blob: blob=" + std::to_string(blob) +
                            " outside the supported range [1, 20000]");
  }
  util::Rng rng(t.seed);
  const auto nodes = lattice::random_blob(static_cast<std::size_t>(blob), rng);
  const auto orientations = core::balanced_random_colors(
      static_cast<std::size_t>(blob),
      static_cast<std::size_t>(kOrientations), rng);
  return make_alignment(
      AlignmentChain(system::ParticleSystem(nodes, orientations),
                     Params{t.lambda, t.gamma}, t.seed));
}

}  // namespace

std::unique_ptr<model::ChainModel> make_alignment(AlignmentChain chain) {
  return std::make_unique<AlignmentModel>(std::move(chain));
}

const AlignmentChain& alignment_chain(const model::ChainModel& m) {
  const auto* align = dynamic_cast<const AlignmentModel*>(&m);
  if (align == nullptr) {
    throw model::ModelError("alignment_chain: model is '" +
                            std::string(m.tag()) + "', not alignment");
  }
  return align->chain();
}

void register_alignment_model() {
  model::Factory factory;
  factory.tag = std::string(kAlignmentTag);
  factory.build = build_alignment;
  factory.restore = restore_alignment;
  model::register_model(std::move(factory));
}

}  // namespace sops::alignment
