// The model factory registry: maps a wire/snapshot model tag
// ("separation", "alignment", …) to the functions that build a fresh
// trajectory from job params or restore one from checkpoint state.
//
// Layering: this registry is the ONLY place the generic stack (engine,
// checkpoint, service, harness) learns about concrete models, and it
// learns them by tag at runtime. The registry itself has no model
// dependencies; each model library registers its own factory, and
// model::ensure_builtin_models() (src/model/builtin.hpp, a separate
// link target) pulls in every first-class model for app entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/model/model.hpp"

namespace sops::model {

/// The per-task coordinates a factory builds from. A deliberately
/// engine-free mirror of engine::Task (src/model cannot depend on
/// src/engine): dense index, replica ordinal, the (λ, γ) cell, and the
/// task's RNG seed.
struct TaskPoint {
  std::size_t index = 0;
  std::size_t replica = 0;
  double lambda = 0.0;
  double gamma = 0.0;
  std::uint64_t seed = 0;
};

/// One registered model family.
struct Factory {
  /// Wire/snapshot tag; one nonempty token, stable across versions.
  std::string tag;

  /// Builds a fresh trajectory for one task from "key=value" job params
  /// (the same strings JobSpec::params carries on the wire). Must be a
  /// pure function of (params, point) — workers build independently.
  /// Throws ModelError on unrecognized or out-of-range params, phrased
  /// "<field>: <detail>" so service refusals compose.
  std::function<std::unique_ptr<ChainModel>(
      std::span<const std::string> params, const TaskPoint& point)>
      build;

  /// Rebuilds a live trajectory from ChainModel::save_state() lines.
  /// Throws ModelError on malformed or non-live state (register_model
  /// reports util::record grammar errors and std::invalid_argument from
  /// construction as ModelError too, for build and restore alike).
  std::function<std::unique_ptr<ChainModel>(
      std::span<const std::string> state)>
      restore;
};

/// Registers a factory. Idempotent: a tag already registered is left in
/// place (first registration wins), so repeated ensure-style calls are
/// safe. Throws ModelError if the factory is malformed (empty tag or
/// missing functions).
void register_model(Factory factory);

/// Looks a tag up; nullptr if unknown. The pointer stays valid for the
/// process lifetime. Thread-safe against concurrent registration.
[[nodiscard]] const Factory* find_model(std::string_view tag) noexcept;

/// find_model or throw ModelError naming the tag and the registered set
/// ("model 'x' not registered (registered: a, b, c)").
[[nodiscard]] const Factory& require_model(std::string_view tag);

/// All registered tags, sorted.
[[nodiscard]] std::vector<std::string> registered_models();

/// require_model(tag).build(params, point).
[[nodiscard]] std::unique_ptr<ChainModel> build_from_spec(
    std::string_view tag, std::span<const std::string> params,
    const TaskPoint& point);

}  // namespace sops::model
