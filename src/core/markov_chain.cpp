#include "src/core/markov_chain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/core/neighborhood.hpp"

namespace sops::core {

using lattice::EdgeRing;
using lattice::Node;
using system::Color;
using system::ParticleIndex;
using system::ParticleSystem;

namespace {

// An arena cell is one 32-bit occupancy slot:
//
//   | 31..28 color ^ 0xF | 27..24 zero | 23..0 index+1 |
//
// 0 encodes an empty cell, so `cell != 0` is the occupancy bit and
// `(cell & kCellIndexMask) - 1` is the particle index, kNoParticle on an
// empty cell. The nibble is exactly the XOR mask a gatherer applies to
// NeighborhoodView's all-0xF default nibbles (0 for an empty cell), so
// gathered nibbles fold into a view with XOR alone.
constexpr std::uint32_t kCellIndexMask = (1u << 24) - 1;
constexpr int kNibbleShift = 28;

constexpr std::uint32_t encode_cell(std::uint32_t index,
                                    std::uint32_t color) noexcept {
  return (index + 1) | ((color ^ 0xFu) << kNibbleShift);
}

// pcell_ packs a particle's cell index below bit 28 with its nibble.
constexpr std::uint32_t kPackedIndexMask = (1u << kNibbleShift) - 1;

// The arena spans the bounding box plus kArenaMargin cells on each side,
// and a move that lands within kArenaSlack cells of an edge rebuilds it
// around the new box.
constexpr std::int64_t kArenaMargin = 8;
constexpr std::int64_t kArenaSlack = 3;

}  // namespace

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

inline void SeparationChain::decode(util::Rng& rng, std::uint64_t n,
                                    Proposal* out, std::size_t from,
                                    std::size_t to, std::uint64_t& words) {
  const auto draw = [&rng, &words]() noexcept {
    ++words;
    return rng.next();
  };
  for (std::size_t t = from; t < to; ++t) {
    Proposal& p = out[t];
    p.pi = static_cast<std::int32_t>(util::lemire_below(draw, n));
    p.dir = static_cast<std::int32_t>(util::lemire_below(draw, 6));
    p.q = draw();
  }
}

void SeparationChain::run(std::uint64_t iterations) {
  if (iterations == 0) return;
  // Sync the FlatMap on any exit, an exception included.
  struct SyncOnExit {
    ParticleSystem& sys;
    ~SyncOnExit() { sys.sync_index(); }
  } const sync_on_exit{sys_};
  if (block_.empty()) block_.resize(2 * kBlockSize);
  if (!arena_ok_ || counters_.steps != arena_steps_) rebuild_arena();
  const auto take = [&iterations]() noexcept {
    const auto count = static_cast<std::size_t>(
        std::min<std::uint64_t>(iterations, kBlockSize));
    iterations -= count;
    return count;
  };
  const std::uint64_t steps = iterations;
  std::uint64_t words = 0;
  Proposal* cur = block_.data();
  Proposal* next = cur + kBlockSize;
  std::size_t count = take();
  decode(rng_, sys_.size(), cur, 0, count, words);
  while (count > 0) {
    // The last block decodes nothing ahead: a caller that stops here
    // sees the generator step() would have left.
    const std::size_t next_count = take();
    run_block(cur, count, next, next_count, words);
    std::swap(cur, next);
    count = next_count;
  }
  run_stats_.words += words;
  run_stats_.tail_words += words - 3 * steps;
  arena_steps_ = counters_.steps;
}

void SeparationChain::run_block(const Proposal* cur, std::size_t count,
                                Proposal* next, std::size_t next_count,
                                std::uint64_t& words) {
  ++run_stats_.blocks;
  const std::size_t from =
      arena_ok_ ? walk_arena(cur, count, next, next_count, words) : 0;
  // What the walk did not decode of the next block, in order; advance()
  // draws nothing, so the FlatMap ticks below may follow it.
  decode(rng_, sys_.size(), next, std::min(from, next_count), next_count,
         words);
  if (from < count) {
    // Ticks the arena cannot serve run through step()'s own body on the
    // synced FlatMap.
    sys_.sync_index();
    for (std::size_t t = from; t < count; ++t) {
      advance(cur[t].pi, cur[t].dir, util::decode_uniform_open(cur[t].q));
    }
    run_stats_.flatmap_steps += count - from;
  }
  counters_.steps += count;
}

void SeparationChain::rebuild_arena() {
  arena_ok_ = false;
  const std::size_t n = sys_.size();
  if (n + 1 > kCellIndexMask) return;
  std::int64_t xmin = std::numeric_limits<std::int64_t>::max();
  std::int64_t xmax = std::numeric_limits<std::int64_t>::min();
  std::int64_t ymin = xmin;
  std::int64_t ymax = xmax;
  for (const Node v : sys_.positions()) {
    xmin = std::min<std::int64_t>(xmin, v.x);
    xmax = std::max<std::int64_t>(xmax, v.x);
    ymin = std::min<std::int64_t>(ymin, v.y);
    ymax = std::max<std::int64_t>(ymax, v.y);
  }
  // Economy rule: connected blobs have bounding boxes of O(n^2) cells at
  // the very worst (a zig-zag path), but a disconnected outlier can blow
  // the box up arbitrarily, so refuse pathological boxes and let the
  // FlatMap carry them. The packed index field bounds the plane too.
  const std::int64_t w = (xmax - xmin + 1) + 2 * kArenaMargin;
  const std::int64_t h = (ymax - ymin + 1) + 2 * kArenaMargin;
  const std::int64_t cap = std::max<std::int64_t>(
      std::int64_t{1} << 20, 32 * static_cast<std::int64_t>(n));
  if (w * h > std::min<std::int64_t>(cap, kPackedIndexMask)) return;

  x0_ = xmin - kArenaMargin;
  y0_ = ymin - kArenaMargin;
  w_ = w;
  h_ = h;
  cells_.assign(static_cast<std::size_t>(w * h), 0);
  pcell_.resize(n);
  const std::int64_t origin = -y0_ * w_ - x0_;
  for (std::size_t i = 0; i < n; ++i) {
    const Node v = sys_.positions()[i];
    const std::uint32_t color = sys_.colors()[i];
    const auto idx = static_cast<std::uint32_t>(
        origin + static_cast<std::int64_t>(v.y) * w_ + v.x);
    pcell_[i] = idx | ((color ^ 0xFu) << kNibbleShift);
    cells_[idx] = encode_cell(static_cast<std::uint32_t>(i), color);
  }
  const auto offset = [this](Node v) {
    return static_cast<std::int32_t>(static_cast<std::int64_t>(v.y) * w_ +
                                     v.x);
  };
  for (int d = 0; d < 6; ++d) {
    const auto dir = static_cast<std::size_t>(d);
    lp_off_[dir] = offset(lattice::neighbor(Node{}, d));
    const EdgeRing ring = EdgeRing::around(Node{}, d);
    for (std::size_t k = 0; k < 8; ++k) {
      ring_off_[dir][k] = offset(ring.nodes[k]);
    }
  }
  ++run_stats_.arena_rebuilds;
  arena_ok_ = true;
}

inline bool SeparationChain::arena_move(ParticleIndex pi, int dir, int de,
                                        int dh) {
  const Node dst = lattice::neighbor(sys_.position(pi), dir);
  sys_.move_unindexed(pi, dst, de, dh);
  std::uint32_t* const cells = cells_.data();
  std::uint32_t& pc = pcell_[static_cast<std::size_t>(pi)];
  const std::int64_t base = pc & kPackedIndexMask;
  const std::int64_t lp_cell = base + lp_off_[dir];
  cells[lp_cell] = cells[base];
  cells[base] = 0;
  pc = (pc & ~kPackedIndexMask) | static_cast<std::uint32_t>(lp_cell);
  if (dst.x - x0_ < kArenaSlack || x0_ + w_ - 1 - dst.x < kArenaSlack ||
      dst.y - y0_ < kArenaSlack || y0_ + h_ - 1 - dst.y < kArenaSlack) {
    rebuild_arena();
  }
  return arena_ok_;
}

inline void SeparationChain::arena_swap(ParticleIndex pi, ParticleIndex qj,
                                        int sx) {
  sys_.swap_unindexed(pi, qj, -sx);
  // The particles exchange cells; each keeps its own color nibble, only
  // the address parts swap.
  std::uint32_t* const cells = cells_.data();
  std::uint32_t& pci = pcell_[static_cast<std::size_t>(pi)];
  std::uint32_t& pcj = pcell_[static_cast<std::size_t>(qj)];
  const std::uint32_t addr_i = pci & kPackedIndexMask;
  const std::uint32_t addr_j = pcj & kPackedIndexMask;
  std::swap(cells[addr_i], cells[addr_j]);
  pci = (pci & ~kPackedIndexMask) | addr_j;
  pcj = (pcj & ~kPackedIndexMask) | addr_i;
}

std::size_t SeparationChain::walk_arena(const Proposal* cur,
                                        std::size_t count, Proposal* next,
                                        std::size_t next_count,
                                        std::uint64_t& words) {
  const bool swaps = params_.swaps_enabled;
  const double* const pow_l = pow_lambda_ + kMaxExp;
  const double* const pow_g = pow_gamma_ + kMaxExp;
  const std::uint64_t n = sys_.size();
  // The decode ahead advances a local generator, kept in registers
  // across the walk, and stores it back at the end.
  util::Rng rng = rng_;
  std::uint64_t drawn = 0;
  // Block-local counts, added to counters_ once at the end.
  Counters c;
  const std::uint32_t* cells = cells_.data();
  const std::uint32_t* pcell = pcell_.data();
  std::size_t stop = count;

  for (std::size_t t = 0; t < count; ++t) {
    const ParticleIndex pi = cur[t].pi;
    const int dir = cur[t].dir;
    const std::uint64_t q = cur[t].q;
    // No data flows between this decode and the tick below, so the two
    // overlap.
    if (t < next_count) decode(rng, n, next, t, t + 1, drawn);

    const std::uint32_t pc = pcell[static_cast<std::size_t>(pi)];
    const std::int64_t base = pc & kPackedIndexMask;
    const std::uint32_t lpc = cells[base + lp_off_[dir]];
    // The gathered nibbles carry the occupancy: an occupied cell's is
    // color ^ 0xF, bit 3 set as colors are below 8, an empty cell's 0.
    // So l' is occupied exactly when lpc != 0, and the move path's
    // ring_mask() reads the ring from the nibbles.
    NeighborhoodView nb;
    nb.color_nibbles ^=
        static_cast<std::uint64_t>(pc >> kNibbleShift) << 32 |
        static_cast<std::uint64_t>(lpc >> kNibbleShift) << 36;
    const std::int32_t* const ring = ring_off_[dir];
    const auto gather_ring = [&nb, cells, base, ring]() noexcept {
      std::uint64_t nib = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        nib |= static_cast<std::uint64_t>(cells[base + ring[k]] >>
                                          kNibbleShift)
               << (4 * k);
      }
      nb.color_nibbles ^= nib;
    };

    if (lpc != 0) {
      if (!swaps) continue;
      ++c.swap_proposals;
      // A like-colored swap's exponent reads no ring node
      // (swap_exponent), and accepting it changes nothing.
      const bool like = ((pc ^ lpc) >> kNibbleShift) == 0;
      if (!like) gather_ring();
      const int sx = nb.swap_exponent();
      if (util::decode_uniform_open(q) >= pow_g[sx]) continue;
      ++c.swaps_accepted;
      if (!like) {
        arena_swap(pi, static_cast<ParticleIndex>(lpc & kCellIndexMask) - 1,
                   sx);
      }
      continue;
    }

    gather_ring();
    ++c.move_proposals;
    const Color ci = nb.color_at(NeighborhoodView::kNodeL);
    const int e = nb.e();
    if (e == 5) {
      ++c.rejected_five;
      continue;
    }
    if (!nb.move_locality_ok()) {
      ++c.rejected_locality;
      continue;
    }
    const int ei = nb.e_i(ci);
    const int ep = nb.e_prime();
    const int epi = nb.e_prime_i(ci);
    if (util::decode_uniform_open(q) >= pow_l[ep - e] * pow_g[epi - ei]) {
      ++c.rejected_metropolis;
      continue;
    }
    ++c.moves_accepted;
    if (!arena_move(pi, dir, ep - e, (ep - epi) - (e - ei))) {
      stop = t + 1;
      break;
    }
    // A drift rebuild may have moved the arena.
    cells = cells_.data();
    pcell = pcell_.data();
  }

  rng_ = rng;
  words += drawn;
  counters_.move_proposals += c.move_proposals;
  counters_.moves_accepted += c.moves_accepted;
  counters_.rejected_five += c.rejected_five;
  counters_.rejected_locality += c.rejected_locality;
  counters_.rejected_metropolis += c.rejected_metropolis;
  counters_.swap_proposals += c.swap_proposals;
  counters_.swaps_accepted += c.swaps_accepted;
  return stop;
}

SeparationChain make_compression_chain(std::span<const Node> positions,
                                       double lambda, std::uint64_t seed) {
  return SeparationChain(ParticleSystem(positions),
                         Params{lambda, /*gamma=*/1.0, /*swaps=*/false}, seed);
}

}  // namespace sops::core
