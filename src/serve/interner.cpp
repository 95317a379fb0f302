#include "serve/interner.hpp"

#include <utility>
#include <vector>

namespace pelican::serve {

std::shared_ptr<const nn::InferenceModel> LayerInterner::intern(
    const nn::InferenceModel& model) {
  // Hash off the lock: it reads every weight word of the model.
  std::vector<std::uint64_t> layer_hashes;
  layer_hashes.reserve(model.layer_count());
  for (const auto& layer : model.layers()) {
    layer_hashes.push_back(layer->content().hash());
  }
  const std::uint64_t head_hash = model.head().content().hash();

  std::vector<nn::InferenceModel::LayerPtr> layers;
  layers.reserve(model.layer_count());
  nn::InferenceModel::HeadPtr head;
  {
    const MutexLock lock(mutex_);
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      layers.push_back(canonical(layers_, model.layers()[i], layer_hashes[i]));
    }
    head = canonical(heads_, model.head_ptr(), head_hash);
    if (since_sweep_ > (layers_.size() + heads_.size()) / 2) {
      prune(layers_);
      prune(heads_);
      since_sweep_ = 0;
    }
  }
  return std::make_shared<const nn::InferenceModel>(std::move(layers),
                                                    std::move(head));
}

template <typename T>
std::shared_ptr<const T> LayerInterner::canonical(
    Table<T>& table, const std::shared_ptr<const T>& part,
    std::uint64_t hash) {
  const nn::LayerContent content = part->content();
  auto [it, end] = table.equal_range(hash);
  while (it != end) {
    std::shared_ptr<const T> resident = it->second.lock();
    if (resident == nullptr) {
      it = table.erase(it);  // its last user is gone
      continue;
    }
    // Same hash is only a candidate: the full content decides.
    if (resident == part || resident->content() == content) return resident;
    ++it;
  }
  table.emplace(hash, part);
  ++since_sweep_;
  return part;
}

template <typename T>
void LayerInterner::prune(Table<T>& table) {
  for (auto it = table.begin(); it != table.end();) {
    it = it->second.expired() ? table.erase(it) : std::next(it);
  }
}

LayerInterner::Residency LayerInterner::residency() const {
  Residency out;
  const MutexLock lock(mutex_);
  for (const auto& [hash, entry] : layers_) {
    if (const auto layer = entry.lock()) {
      ++out.layers;
      out.bytes += layer->content().bytes();
    }
  }
  for (const auto& [hash, entry] : heads_) {
    if (const auto head = entry.lock()) {
      ++out.layers;
      out.bytes += head->content().bytes();
    }
  }
  return out;
}

}  // namespace pelican::serve
