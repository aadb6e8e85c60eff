#include "src/exact/chain_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/core/locality.hpp"
#include "src/sops/invariants.hpp"

namespace sops::exact {

using core::Params;
using lattice::kDegree;
using lattice::Node;
using system::ParticleIndex;
using system::ParticleSystem;

ChainMatrix::ChainMatrix(const std::vector<std::size_t>& color_counts,
                         const Params& params, std::size_t max_states)
    : params_(params), states_(enumerate_states(color_counts)) {
  if (states_.size() > max_states) {
    throw std::invalid_argument("ChainMatrix: state space too large");
  }
  for (std::size_t i = 0; i < states_.size(); ++i) {
    index_[states_[i].key()] = i;
  }

  const std::size_t m = states_.size();
  matrix_.assign(m, std::vector<double>(m, 0.0));

  for (std::size_t si = 0; si < m; ++si) {
    const State& s = states_[si];
    const std::size_t n = s.nodes.size();
    const double choice_prob = 1.0 / (6.0 * static_cast<double>(n));
    ParticleSystem sys(s.nodes, s.colors);
    double self_loop = 0.0;

    for (std::size_t p = 0; p < n; ++p) {
      const auto pi = static_cast<ParticleIndex>(p);
      const Node l = sys.position(pi);
      for (int dir = 0; dir < kDegree; ++dir) {
        const Node lp = lattice::neighbor(l, dir);
        const ParticleIndex qi = sys.particle_at(lp);

        double accept = 0.0;
        std::size_t target = si;
        if (qi == system::kNoParticle) {
          const int e = sys.neighbor_count(l);
          if (e != 5 &&
              core::move_preserves_invariants_reference(sys, l, dir)) {
            accept = std::min(
                1.0, core::move_weight_reference(sys, params_, l, dir));
            // Apply, canonicalize, revert.
            ParticleSystem moved = sys;
            moved.apply_move(pi, lp);
            const auto it = index_.find(state_of(moved).key());
            if (it == index_.end()) {
              throw std::logic_error("ChainMatrix: move left state space");
            }
            target = it->second;
          }
        } else if (params_.swaps_enabled) {
          accept = std::min(
              1.0, core::swap_weight_reference(sys, params_, l, dir));
          ParticleSystem swapped = sys;
          swapped.apply_swap(pi, qi);
          const auto it = index_.find(state_of(swapped).key());
          if (it == index_.end()) {
            throw std::logic_error("ChainMatrix: swap left state space");
          }
          target = it->second;
        }

        matrix_[si][target] += accept * choice_prob;
        self_loop += (1.0 - accept) * choice_prob;
      }
    }
    matrix_[si][si] += self_loop;
  }
}

std::ptrdiff_t ChainMatrix::index_of(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? -1 : static_cast<std::ptrdiff_t>(it->second);
}

std::vector<double> ChainMatrix::lemma9_distribution() const {
  std::vector<double> weights(states_.size());
  double z = 0.0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ParticleSystem sys(states_[i].nodes, states_[i].colors);
    const auto p = static_cast<double>(sys.perimeter_by_identity());
    const auto h = static_cast<double>(sys.hetero_edge_count());
    weights[i] = std::pow(params_.lambda * params_.gamma, -p) *
                 std::pow(params_.gamma, -h);
    z += weights[i];
  }
  for (double& w : weights) w /= z;
  return weights;
}

double ChainMatrix::max_row_sum_error() const {
  double worst = 0.0;
  for (const auto& row : matrix_) {
    double sum = 0.0;
    for (const double v : row) sum += v;
    worst = std::max(worst, std::abs(sum - 1.0));
  }
  return worst;
}

double ChainMatrix::max_detailed_balance_violation() const {
  const std::vector<double> pi = lemma9_distribution();
  double worst = 0.0;
  for (std::size_t a = 0; a < states_.size(); ++a) {
    for (std::size_t b = a + 1; b < states_.size(); ++b) {
      worst = std::max(
          worst, std::abs(pi[a] * matrix_[a][b] - pi[b] * matrix_[b][a]));
    }
  }
  return worst;
}

double ChainMatrix::max_stationarity_violation() const {
  const std::vector<double> pi = lemma9_distribution();
  double worst = 0.0;
  for (std::size_t b = 0; b < states_.size(); ++b) {
    double mass = 0.0;
    for (std::size_t a = 0; a < states_.size(); ++a) {
      mass += pi[a] * matrix_[a][b];
    }
    worst = std::max(worst, std::abs(mass - pi[b]));
  }
  return worst;
}

bool ChainMatrix::irreducible() const {
  // BFS on positive-probability arcs, forward from state 0, then check
  // the reverse graph the same way (strong connectivity both ways).
  const auto reaches_all = [&](bool reverse) {
    std::vector<char> seen(states_.size(), 0);
    std::vector<std::size_t> queue{0};
    seen[0] = 1;
    std::size_t head = 0;
    while (head < queue.size()) {
      const std::size_t v = queue[head++];
      for (std::size_t u = 0; u < states_.size(); ++u) {
        const double prob = reverse ? matrix_[u][v] : matrix_[v][u];
        if (prob > 0.0 && !seen[u]) {
          seen[u] = 1;
          queue.push_back(u);
        }
      }
    }
    return queue.size() == states_.size();
  };
  return reaches_all(false) && reaches_all(true);
}

bool ChainMatrix::aperiodic() const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (matrix_[i][i] > 0.0) return true;
  }
  return false;
}

double ChainMatrix::spectral_gap(std::size_t iterations) const {
  const std::vector<double> pi = lemma9_distribution();
  const std::size_t m = states_.size();
  if (m < 2) return 1.0;

  // Symmetrized kernel S = D^{1/2} M D^{-1/2} with D = diag(π): S is
  // symmetric for reversible M, shares M's spectrum, and has top
  // eigenvector v1[i] = sqrt(π[i]).
  std::vector<double> sqrt_pi(m);
  for (std::size_t i = 0; i < m; ++i) sqrt_pi[i] = std::sqrt(pi[i]);

  const auto apply_s = [&](const std::vector<double>& x) {
    std::vector<double> y(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      if (x[i] == 0.0) continue;
      const double xi_scaled = x[i] * sqrt_pi[i];
      for (std::size_t j = 0; j < m; ++j) {
        y[j] += xi_scaled * matrix_[i][j] / sqrt_pi[j];
      }
    }
    return y;
  };
  const auto deflate_and_normalize = [&](std::vector<double>& x) {
    double dot = 0.0;
    for (std::size_t i = 0; i < m; ++i) dot += x[i] * sqrt_pi[i];
    for (std::size_t i = 0; i < m; ++i) x[i] -= dot * sqrt_pi[i];
    double norm = 0.0;
    for (const double v : x) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 0) {
      for (double& v : x) v /= norm;
    }
    return norm;
  };

  // Power iteration on |S| restricted to v1's orthogonal complement
  // estimates max(|λ₂|, |λ_min|); to isolate λ₂ (the relevant quantity
  // for mixing from above) we iterate on the positive-shifted kernel
  // (S + I)/2, whose second eigenvalue is (λ₂ + 1)/2 ≥ 0.
  std::vector<double> x(m);
  for (std::size_t i = 0; i < m; ++i) {
    x[i] = (i % 2 == 0) ? 1.0 : -0.5;  // arbitrary, not parallel to v1
  }
  deflate_and_normalize(x);
  double eigenvalue = 0.0;
  for (std::size_t it = 0; it < iterations; ++it) {
    std::vector<double> y = apply_s(x);
    for (std::size_t i = 0; i < m; ++i) y[i] = 0.5 * (y[i] + x[i]);
    const double norm = deflate_and_normalize(y);
    const double shifted = norm;  // ≈ (λ₂ + 1)/2 once converged
    x = std::move(y);
    if (it > 50 && std::abs(shifted - eigenvalue) < 1e-14) {
      eigenvalue = shifted;
      break;
    }
    eigenvalue = shifted;
  }
  const double lambda2 = 2.0 * eigenvalue - 1.0;
  return 1.0 - lambda2;
}

std::map<std::string, double> ChainMatrix::lemma9_distribution_by_key() const {
  const std::vector<double> pi = lemma9_distribution();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    out[states_[i].key()] = pi[i];
  }
  return out;
}

}  // namespace sops::exact
