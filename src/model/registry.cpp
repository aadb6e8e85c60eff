#include "src/model/registry.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/util/record.hpp"

namespace sops::model {

namespace {

// Keyed storage with stable Factory addresses (node-based map): a
// find_model() pointer handed to a worker thread must outlive any later
// registration. The mutex covers registration vs. lookup races at
// startup; after ensure_builtin_models() the map is effectively
// read-only.
std::map<std::string, Factory, std::less<>>& registry_map() {
  static std::map<std::string, Factory, std::less<>> map;
  return map;
}

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

void register_model(Factory factory) {
  if (factory.tag.empty() ||
      factory.tag.find_first_of(" \t\n\r") != std::string::npos) {
    throw ModelError("register_model: tag must be one nonempty token");
  }
  if (!factory.build || !factory.restore) {
    throw ModelError("register_model: factory for '" + factory.tag +
                     "' must provide both build and restore");
  }
  // One place turns a model's bad-input failures into ModelError: the
  // record grammar of a state block, and the std::invalid_argument its
  // constructors throw for a configuration they refuse (a duplicate
  // node, λ <= 0, …), which would otherwise escape callers that catch
  // ModelError.
  factory.build = [build = std::move(factory.build)](
                      std::span<const std::string> params,
                      const TaskPoint& point) {
    try {
      return build(params, point);
    } catch (const std::invalid_argument& e) {
      throw ModelError(e.what());
    }
  };
  factory.restore = [restore = std::move(factory.restore)](
                        std::span<const std::string> state) {
    try {
      return restore(state);
    } catch (const util::record::Error& e) {
      throw ModelError(std::string("state: ") + e.what());
    } catch (const std::invalid_argument& e) {
      throw ModelError(std::string("state: ") + e.what());
    }
  };
  const std::scoped_lock lock(registry_mutex());
  registry_map().try_emplace(factory.tag, std::move(factory));
}

const Factory* find_model(std::string_view tag) noexcept {
  const std::scoped_lock lock(registry_mutex());
  const auto& map = registry_map();
  const auto it = map.find(tag);
  return it == map.end() ? nullptr : &it->second;
}

const Factory& require_model(std::string_view tag) {
  const Factory* factory = find_model(tag);
  if (factory != nullptr) return *factory;
  std::string names;
  for (const std::string& n : registered_models()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  throw ModelError("model '" + std::string(tag) +
                   "' not registered (registered: " + names + ")");
}

std::vector<std::string> registered_models() {
  const std::scoped_lock lock(registry_mutex());
  std::vector<std::string> out;
  out.reserve(registry_map().size());
  for (const auto& [tag, factory] : registry_map()) out.push_back(tag);
  return out;
}

std::unique_ptr<ChainModel> build_from_spec(std::string_view tag,
                                            std::span<const std::string> params,
                                            const TaskPoint& point) {
  return require_model(tag).build(params, point);
}

}  // namespace sops::model
