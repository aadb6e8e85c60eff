#include "src/core/runner.hpp"

#include "src/sops/invariants.hpp"

namespace sops::core {

Measurement measure(const SeparationChain& chain) {
  return measure(chain, system::p_min(chain.system().size()));
}

Measurement measure(const SeparationChain& chain, std::int64_t pmin) {
  const auto& sys = chain.system();
  Measurement m;
  m.iteration = chain.counters().steps;
  m.edges = sys.edge_count();
  m.hetero_edges = sys.hetero_edge_count();
  m.perimeter = sys.perimeter_by_identity();
  m.perimeter_ratio = pmin > 0 ? static_cast<double>(m.perimeter) /
                                     static_cast<double>(pmin)
                               : 1.0;
  m.hetero_fraction = m.edges > 0 ? static_cast<double>(m.hetero_edges) /
                                        static_cast<double>(m.edges)
                                  : 0.0;
  return m;
}

}  // namespace sops::core
