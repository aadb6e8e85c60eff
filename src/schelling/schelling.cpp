#include "src/schelling/schelling.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/lattice/shapes.hpp"
#include "src/util/hash_table.hpp"

namespace sops::schelling {

using lattice::kDegree;
using lattice::Node;

SchellingModel::SchellingModel(std::int32_t radius, double vacancy,
                               double tolerance, std::uint64_t seed)
    : tolerance_(tolerance), rng_(seed) {
  if (radius < 1) throw std::invalid_argument("SchellingModel: radius < 1");
  if (!(vacancy > 0.0 && vacancy < 1.0)) {
    throw std::invalid_argument("SchellingModel: vacancy must be in (0,1)");
  }
  if (!(tolerance >= 0.0 && tolerance <= 1.0)) {
    throw std::invalid_argument("SchellingModel: tolerance must be in [0,1]");
  }

  const std::vector<Node> region = lattice::hexagon(radius);
  util::FlatMap<std::uint32_t> index(region.size() * 2);
  for (std::size_t i = 0; i < region.size(); ++i) {
    index.insert(lattice::pack(region[i]), static_cast<std::uint32_t>(i));
  }
  neighbors_.resize(region.size());
  for (std::size_t i = 0; i < region.size(); ++i) {
    for (int k = 0; k < kDegree; ++k) {
      if (const std::uint32_t* j =
              index.find(lattice::pack(lattice::neighbor(region[i], k)))) {
        neighbors_[i].push_back(*j);
      }
    }
  }

  // Populate: vacancy fraction empty, the rest split evenly by color.
  const auto n_sites = region.size();
  const auto n_vacant = std::max<std::size_t>(
      1, static_cast<std::size_t>(vacancy * static_cast<double>(n_sites)));
  agents_ = n_sites - n_vacant;
  sites_.assign(n_sites, Site::kVacant);
  std::vector<std::uint32_t> order(n_sites);
  for (std::size_t i = 0; i < n_sites; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = n_sites; i > 1; --i) {
    std::swap(order[i - 1], order[rng_.below(i)]);
  }
  for (std::size_t i = 0; i < agents_; ++i) {
    sites_[order[i]] = (i % 2 == 0) ? Site::kColorA : Site::kColorB;
  }
  for (std::size_t i = agents_; i < n_sites; ++i) {
    vacancies_.push_back(order[i]);
  }
}

bool SchellingModel::unhappy(std::size_t i) const {
  const Site mine = sites_[i];
  int occupied = 0;
  int same = 0;
  for (const std::uint32_t j : neighbors_[i]) {
    if (sites_[j] == Site::kVacant) continue;
    ++occupied;
    same += (sites_[j] == mine) ? 1 : 0;
  }
  if (occupied == 0) return false;  // isolated agents are content
  return static_cast<double>(same) <
         tolerance_ * static_cast<double>(occupied);
}

bool SchellingModel::step() {
  // Pick a uniformly random agent by rejection over sites (occupancy is
  // high, so this is cheap).
  std::size_t agent = 0;
  do {
    agent = static_cast<std::size_t>(rng_.below(sites_.size()));
  } while (sites_[agent] == Site::kVacant);

  if (!unhappy(agent)) return false;
  const auto slot = static_cast<std::size_t>(rng_.below(vacancies_.size()));
  const std::uint32_t target = vacancies_[slot];
  sites_[target] = sites_[agent];
  sites_[agent] = Site::kVacant;
  vacancies_[slot] = static_cast<std::uint32_t>(agent);
  return true;
}

void SchellingModel::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) step();
}

void SchellingModel::set_sites(std::span<const Site> sites,
                               std::span<const std::uint32_t> vacancies) {
  if (sites.size() != sites_.size()) {
    throw std::invalid_argument("set_sites: wrong site count");
  }
  std::size_t vacant = 0;
  for (const Site s : sites) {
    if (s == Site::kVacant) ++vacant;
  }
  if (vacancies.size() != vacant) {
    throw std::invalid_argument(
        "set_sites: vacancy list does not match vacant site count");
  }
  std::vector<bool> listed(sites.size(), false);
  for (const std::uint32_t v : vacancies) {
    if (v >= sites.size() || sites[v] != Site::kVacant || listed[v]) {
      throw std::invalid_argument(
          "set_sites: vacancy list must name each vacant site exactly once");
    }
    listed[v] = true;
  }
  sites_.assign(sites.begin(), sites.end());
  vacancies_.assign(vacancies.begin(), vacancies.end());
  agents_ = sites_.size() - vacant;
}

double SchellingModel::unhappy_fraction() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] != Site::kVacant && unhappy(i)) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(agents_);
}

double SchellingModel::segregation_index() const {
  std::size_t pairs = 0;
  std::size_t same = 0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == Site::kVacant) continue;
    for (const std::uint32_t j : neighbors_[i]) {
      if (j < i || sites_[j] == Site::kVacant) continue;
      ++pairs;
      same += (sites_[j] == sites_[i]) ? 1 : 0;
    }
  }
  if (pairs == 0) return 0.5;
  return static_cast<double>(same) / static_cast<double>(pairs);
}

}  // namespace sops::schelling
