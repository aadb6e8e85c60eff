#include "src/core/locality.hpp"

namespace sops::core {

RingOccupancy RingOccupancy::read(const system::ParticleSystem& sys,
                                  lattice::Node l, int dir) noexcept {
  const lattice::EdgeRing ring = lattice::EdgeRing::around(l, dir);
  RingOccupancy out;
  for (std::size_t i = 0; i < ring.nodes.size(); ++i) {
    out.occupied[i] = sys.occupied(ring.nodes[i]);
  }
  return out;
}

bool property4(const RingOccupancy& ring) noexcept {
  const int s = ring.common_count();
  if (s == 0) return false;

  // Walk the 8-cycle once; for each maximal run of occupied nodes count
  // the common neighbors (ring indices 0 and 4) it contains. To handle
  // wraparound, start the walk at an unoccupied node if one exists; a
  // fully-occupied ring is a single run containing both commons.
  int start = -1;
  for (int i = 0; i < 8; ++i) {
    if (!ring.occupied[i]) {
      start = i;
      break;
    }
  }
  if (start < 0) return false;  // one run with |S| = 2 commons

  int commons_in_run = 0;
  bool in_run = false;
  for (int step = 1; step <= 8; ++step) {
    const int i = (start + step) % 8;
    if (ring.occupied[i]) {
      in_run = true;
      if (i == 0 || i == 4) ++commons_in_run;
    } else {
      if (in_run && commons_in_run != 1) return false;
      in_run = false;
      commons_in_run = 0;
    }
  }
  // The walk ends at `start`, which is unoccupied, so every run was closed.
  return true;
}

bool property5(const RingOccupancy& ring) noexcept {
  if (ring.common_count() != 0) return false;
  // Side arcs: indices 1..3 are the private neighbors of l, 5..7 those of
  // l'. Each arc is a path; its occupied subset must be nonempty and
  // contiguous.
  const auto arc_ok = [&](int a, int b, int c) {
    const bool oa = ring.occupied[a];
    const bool ob = ring.occupied[b];
    const bool oc = ring.occupied[c];
    if (!oa && !ob && !oc) return false;       // empty
    if (oa && oc && !ob) return false;         // split run
    return true;
  };
  return arc_ok(1, 2, 3) && arc_ok(5, 6, 7);
}

bool move_preserves_invariants_reference(const system::ParticleSystem& sys,
                                         lattice::Node l, int dir) noexcept {
  const RingOccupancy ring = RingOccupancy::read(sys, l, dir);
  return property4(ring) || property5(ring);
}

}  // namespace sops::core
