// Scalar observables of the separation chain, the quantities the
// paper's figures are built from. The measurement drivers that run a
// chain to checkpoints or sample it at equilibrium live one layer up,
// on the model seam (model::run_with_checkpoints, sample_equilibrium).
#pragma once

#include <cstdint>

#include "src/core/markov_chain.hpp"

namespace sops::core {

/// Scalar observables of a configuration at one instant of the run.
struct Measurement {
  std::uint64_t iteration = 0;
  std::int64_t perimeter = 0;      ///< p(σ) via e = 3n − p − 3
  std::int64_t edges = 0;          ///< e(σ)
  std::int64_t hetero_edges = 0;   ///< h(σ)
  double perimeter_ratio = 0.0;    ///< p(σ) / p_min(n) — the compression gauge
  double hetero_fraction = 0.0;    ///< h(σ) / e(σ) — the integration gauge
};

/// Reads the observables off the chain's current configuration.
[[nodiscard]] Measurement measure(const SeparationChain& chain);

/// Same, with the caller supplying p_min(n). n is fixed for a chain's
/// lifetime, so a long-lived owner (the separation model) computes p_min
/// once instead of re-deriving the integer square root per measurement.
/// Must be passed system::p_min(chain.system().size()).
[[nodiscard]] Measurement measure(const SeparationChain& chain,
                                  std::int64_t pmin);

}  // namespace sops::core
