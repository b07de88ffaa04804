#include "petri/petri_net.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace ppsc {
namespace petri {

SparseForm::SparseForm(std::size_t num_states,
                       const std::vector<Transition>& transitions)
    : by_lowest_pre_place_(num_states) {
  pre_offsets_.reserve(transitions.size() + 1);
  delta_offsets_.reserve(transitions.size() + 1);
  pre_offsets_.push_back(0);
  delta_offsets_.push_back(0);
  for (std::size_t t = 0; t < transitions.size(); ++t) {
    const Config& pre = transitions[t].pre;
    const Config& post = transitions[t].post;
    const std::size_t first_pre = pre_entries_.size();
    for (std::size_t p = 0; p < num_states; ++p) {
      const auto place = static_cast<std::uint32_t>(p);
      if (pre[p] > 0) pre_entries_.push_back({place, pre[p]});
      if (post[p] != pre[p]) {
        delta_entries_.push_back({place, post[p] - pre[p]});
      }
    }
    if (pre_entries_.size() == first_pre) {
      empty_pre_.push_back(t);
    } else {
      by_lowest_pre_place_[pre_entries_[first_pre].place].push_back(t);
    }
    pre_offsets_.push_back(pre_entries_.size());
    delta_offsets_.push_back(delta_entries_.size());
  }
}

const SparseForm& PetriNet::sparse() const {
  std::shared_ptr<const SparseForm> form = std::atomic_load(&sparse_.form);
  if (!form) {
    auto built = std::make_shared<const SparseForm>(num_states_, transitions_);
    // On failure a concurrent first call won, and `form` now holds its
    // (identical) result.
    if (std::atomic_compare_exchange_strong(&sparse_.form, &form, built)) {
      form = std::move(built);
    }
  }
  // sparse_ keeps the form alive until the next add().
  return *form;
}

void PetriNet::add(Config pre, Config post) {
  if (pre.size() != num_states_ || post.size() != num_states_) {
    throw std::invalid_argument("PetriNet::add: dimension mismatch");
  }
  for (std::size_t p = 0; p < num_states_; ++p) {
    if (pre[p] < 0 || post[p] < 0) {
      throw std::invalid_argument("PetriNet::add: negative count");
    }
  }
  transitions_.push_back({std::move(pre), std::move(post)});
  sparse_.form.reset();
}

Count PetriNet::norm_inf() const {
  Count norm = 0;
  for (const Transition& t : transitions_) {
    norm = std::max({norm, t.pre.norm_inf(), t.post.norm_inf()});
  }
  return norm;
}

Count PetriNet::max_width() const {
  Count width = 0;
  for (const Transition& t : transitions_) {
    width = std::max(width, t.width());
  }
  return width;
}

bool PetriNet::enabled(std::size_t t, const Config& config) const {
  if (config.size() != num_states_) {
    throw std::invalid_argument("PetriNet::enabled: dimension mismatch");
  }
  return sparse().enabled(t, config);
}

Config PetriNet::fire(std::size_t t, const Config& config) const {
  if (config.size() != num_states_) {
    throw std::invalid_argument("PetriNet::fire: dimension mismatch");
  }
  Config next = config;
  for (const SparseEntry& e : sparse().delta(t)) next[e.place] += e.amount;
  return next;
}

PetriNet PetriNet::restrict(const std::vector<bool>& keep) const {
  if (keep.size() != num_states_) {
    throw std::invalid_argument("PetriNet::restrict: mask dimension mismatch");
  }
  std::size_t kept = 0;
  for (bool k : keep) kept += k ? 1 : 0;
  PetriNet out(kept);
  for (const Transition& t : transitions_) {
    bool supported = true;
    for (std::size_t p = 0; p < num_states_; ++p) {
      if (!keep[p] && (t.pre[p] != 0 || t.post[p] != 0)) {
        supported = false;
        break;
      }
    }
    if (supported) out.add(t.pre.restrict(keep), t.post.restrict(keep));
  }
  return out;
}

std::optional<Config> projected_step(const Transition& t,
                                     const std::vector<bool>& keep,
                                     const Config& marking) {
  const Config q_pre = t.pre.restrict(keep);
  if (!marking.covers(q_pre)) return std::nullopt;
  const Config q_post = t.post.restrict(keep);
  Config next = marking;
  for (std::size_t p = 0; p < next.size(); ++p) {
    next[p] += q_post[p] - q_pre[p];
  }
  return next;
}

PetriNet PetriNet::project(const std::vector<bool>& keep) const {
  if (keep.size() != num_states_) {
    throw std::invalid_argument("PetriNet::project: mask dimension mismatch");
  }
  std::size_t kept = 0;
  for (bool k : keep) kept += k ? 1 : 0;
  PetriNet out(kept);
  for (const Transition& t : transitions_) {
    out.add(t.pre.restrict(keep), t.post.restrict(keep));
  }
  return out;
}

}  // namespace petri
}  // namespace ppsc
