// The separation chain behind the ChainModel seam — the paper's own
// model: run() is SeparationChain::run, whose arena the chain keeps
// between calls, p_min computed once, Measurement math byte-identical
// to core::measure.
#pragma once

#include <memory>

#include "src/core/markov_chain.hpp"
#include "src/model/model.hpp"

namespace sops::model {

inline constexpr std::string_view kSeparationTag = "separation";

/// Wraps an already-constructed chain.
[[nodiscard]] std::unique_ptr<ChainModel> make_separation(
    core::SeparationChain chain);

/// Downcast for separation-specific on_sample hooks (certificates,
/// renders): the wrapped live chain, or ModelError if `model` is not
/// the separation model.
[[nodiscard]] const core::SeparationChain& separation_chain(
    const ChainModel& model);

/// Registers the "separation" factory: params blob=N (required),
/// colors=K (default 2), swaps=0|1 (default 1); each task builds its
/// blob and coloring from its own seed. Idempotent.
void register_separation_model();

}  // namespace sops::model
