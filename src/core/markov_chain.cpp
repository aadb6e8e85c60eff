#include "src/core/markov_chain.hpp"

#include <cmath>
#include <stdexcept>

#include "src/core/neighborhood.hpp"
#include "src/core/replica_band.hpp"

namespace sops::core {

using lattice::Node;
using system::Color;
using system::ParticleIndex;
using system::ParticleSystem;

double move_weight_reference(const ParticleSystem& sys, const Params& p,
                             Node l, int dir) {
  const Node lp = lattice::neighbor(l, dir);
  if (sys.occupied(lp)) {
    throw std::invalid_argument("move_weight: target occupied");
  }
  const ParticleIndex pi = sys.particle_at(l);
  if (pi == system::kNoParticle) {
    throw std::invalid_argument("move_weight: no particle at l");
  }
  const Color ci = sys.color(pi);
  // e and e_i: P's neighbors when contracted at l (l' is empty, so no
  // exclusion needed). e' and e'_i: neighbors P would have at l',
  // excluding P itself at l.
  const int e = sys.neighbor_count(l);
  const int ei = sys.neighbor_count_color(l, ci);
  const int ep = sys.neighbor_count(lp, /*exclude=*/l);
  const int epi = sys.neighbor_count_color(lp, ci, /*exclude=*/l);
  return std::pow(p.lambda, ep - e) * std::pow(p.gamma, epi - ei);
}

double swap_weight_reference(const ParticleSystem& sys, const Params& p,
                             Node l, int dir) {
  const Node lp = lattice::neighbor(l, dir);
  const ParticleIndex pi = sys.particle_at(l);
  const ParticleIndex qi = sys.particle_at(lp);
  if (pi == system::kNoParticle || qi == system::kNoParticle) {
    throw std::invalid_argument("swap_weight: both nodes must be occupied");
  }
  const Color ci = sys.color(pi);
  const Color cj = sys.color(qi);
  // Exponent per Algorithm 1, line 10. N_i(l') \ {P} excludes P (adjacent
  // to l'); N_j(l) \ {Q} excludes Q (adjacent to l). The un-excluded
  // counts N_i(l) and N_j(l') are taken literally.
  const int ni_lp = sys.neighbor_count_color(lp, ci, /*exclude=*/l);
  const int ni_l = sys.neighbor_count_color(l, ci);
  const int nj_l = sys.neighbor_count_color(l, cj, /*exclude=*/lp);
  const int nj_lp = sys.neighbor_count_color(lp, cj);
  return std::pow(p.gamma, (ni_lp - ni_l) + (nj_l - nj_lp));
}

SeparationChain::SeparationChain(ParticleSystem sys, Params params,
                                 std::uint64_t seed)
    : sys_(std::move(sys)), params_(params), rng_(seed) {
  if (!(params_.lambda > 0.0) || !(params_.gamma > 0.0)) {
    throw std::invalid_argument("SeparationChain: lambda and gamma must be > 0");
  }
  for (int k = -kMaxExp; k <= kMaxExp; ++k) {
    pow_lambda_[static_cast<std::size_t>(k + kMaxExp)] =
        std::pow(params_.lambda, k);
    pow_gamma_[static_cast<std::size_t>(k + kMaxExp)] =
        std::pow(params_.gamma, k);
  }
}

bool SeparationChain::step() {
  ++counters_.steps;
  const auto pi = static_cast<ParticleIndex>(rng_.below(sys_.size()));
  const int dir = static_cast<int>(rng_.below(6));
  const double q = rng_.uniform_open();
  return advance(pi, dir, q);
}

bool SeparationChain::advance(ParticleIndex pi, int dir, double q) {
  const Node l = sys_.position(pi);
  const NeighborhoodView nb = NeighborhoodView::gather(sys_, l, dir, pi);

  if (!nb.lp_occupied()) {
    ++counters_.move_proposals;
    const Color ci = sys_.color(pi);
    const int e = nb.e();
    if (e == 5) {
      ++counters_.rejected_five;
      return false;
    }
    if (!nb.move_locality_ok()) {
      ++counters_.rejected_locality;
      return false;
    }
    const int ei = nb.e_i(ci);
    const int ep = nb.e_prime();
    const int epi = nb.e_prime_i(ci);
    if (q >= pow_lambda(ep - e) * pow_gamma(epi - ei)) {
      ++counters_.rejected_metropolis;
      return false;
    }
    // The gather already determines both bookkeeping deltas: the move
    // gains e' − e edges and (e' − e'_i) − (e − e_i) heterogeneous ones.
    sys_.apply_move(pi, lattice::neighbor(l, dir), ep - e,
                    (ep - epi) - (e - ei));
    ++counters_.moves_accepted;
    return true;
  }

  if (!params_.swaps_enabled) return false;
  ++counters_.swap_proposals;
  const Color ci = sys_.color(pi);
  const Color cj = sys_.color(nb.p_at_lp);
  if (q >= pow_gamma(nb.swap_exponent())) return false;
  sys_.apply_swap(pi, nb.p_at_lp);
  ++counters_.swaps_accepted;
  return ci != cj;
}

bool SeparationChain::step_reference() {
  ++counters_.steps;
  const auto pi = static_cast<ParticleIndex>(rng_.below(sys_.size()));
  const int dir = static_cast<int>(rng_.below(6));
  const double q = rng_.uniform_open();

  const Node l = sys_.position(pi);
  const Node lp = lattice::neighbor(l, dir);
  const ParticleIndex qi = sys_.particle_at(lp);

  if (qi == system::kNoParticle) {
    ++counters_.move_proposals;
    const Color ci = sys_.color(pi);
    const int e = sys_.neighbor_count(l);
    if (e == 5) {
      ++counters_.rejected_five;
      return false;
    }
    if (!move_preserves_invariants_reference(sys_, l, dir)) {
      ++counters_.rejected_locality;
      return false;
    }
    const int ei = sys_.neighbor_count_color(l, ci);
    const int ep = sys_.neighbor_count(lp, /*exclude=*/l);
    const int epi = sys_.neighbor_count_color(lp, ci, /*exclude=*/l);
    if (q >= pow_lambda(ep - e) * pow_gamma(epi - ei)) {
      ++counters_.rejected_metropolis;
      return false;
    }
    sys_.apply_move(pi, lp);
    ++counters_.moves_accepted;
    return true;
  }

  if (!params_.swaps_enabled) return false;
  ++counters_.swap_proposals;
  const Color ci = sys_.color(pi);
  const Color cj = sys_.color(qi);
  const int ni_lp = sys_.neighbor_count_color(lp, ci, /*exclude=*/l);
  const int ni_l = sys_.neighbor_count_color(l, ci);
  const int nj_l = sys_.neighbor_count_color(l, cj, /*exclude=*/lp);
  const int nj_lp = sys_.neighbor_count_color(lp, cj);
  const int exponent = (ni_lp - ni_l) + (nj_l - nj_lp);
  if (q >= pow_gamma(exponent)) return false;
  sys_.apply_swap(pi, qi);
  ++counters_.swaps_accepted;
  return ci != cj;
}

void SeparationChain::run(std::uint64_t iterations) {
  SeparationChain* const self = this;
  ReplicaBand(std::span<SeparationChain* const>(&self, 1)).run(iterations);
}

void SeparationChain::run_reference(std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) step_reference();
}

SeparationChain make_compression_chain(std::span<const Node> positions,
                                       double lambda, std::uint64_t seed) {
  return SeparationChain(ParticleSystem(positions),
                         Params{lambda, /*gamma=*/1.0, /*swaps=*/false}, seed);
}

}  // namespace sops::core
