#include "core/protocol.h"

#include <stdexcept>
#include <utility>

namespace ppsc {
namespace core {

Count Protocol::num_leaders() const { return population(leaders_); }

Config Protocol::initial_config(const std::vector<Count>& input) const {
  if (input.size() != input_states_.size()) {
    throw std::invalid_argument("initial_config: expected " +
                                std::to_string(input_states_.size()) +
                                " input dimensions, got " +
                                std::to_string(input.size()));
  }
  Config config = leaders_;
  for (std::size_t dim = 0; dim < input.size(); ++dim) {
    if (input[dim] < 0) {
      throw std::invalid_argument("initial_config: negative input");
    }
    config[input_states_[dim]] += input[dim];
  }
  return config;
}

Count Protocol::population(const Config& config) {
  Count total = 0;
  for (Count k : config) total += k;
  return total;
}

std::size_t ProtocolBuilder::add_state(const std::string& name, bool output) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_state after build()");
  }
  protocol_.state_names_.push_back(name);
  protocol_.outputs_.push_back(output ? 1 : 0);
  protocol_.leaders_.push_back(0);
  const std::size_t id = protocol_.state_names_.size() - 1;
  protocol_.state_index_.emplace(name, id);  // duplicates keep the first id
  return id;
}

void ProtocolBuilder::add_input(std::size_t state) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_input after build()");
  }
  check_state(state, "<input>");
  protocol_.input_states_.push_back(state);
}

void ProtocolBuilder::add_leaders(std::size_t state, Count count) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_leaders after build()");
  }
  check_state(state, "<leaders>");
  if (count < 0) {
    throw std::invalid_argument("ProtocolBuilder: negative leader count");
  }
  protocol_.leaders_[state] += count;
}

void ProtocolBuilder::add_rule(
    const std::string& name,
    const std::vector<std::pair<std::size_t, Count>>& pre,
    const std::vector<std::pair<std::size_t, Count>>& post) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_rule after build()");
  }
  const std::size_t n = protocol_.state_names_.size();
  Rule rule{name, Config(n, 0), Config(n, 0)};
  // Each entry is checked before it is summed, so a negative entry
  // cannot hide behind a positive one on the same state.
  const auto add = [&](const std::pair<std::size_t, Count>& entry,
                       Config& side) {
    check_state(entry.first, name);
    if (entry.second < 0) {
      throw std::invalid_argument("transition '" + name +
                                  "': negative multiplicity");
    }
    side[entry.first] += entry.second;
  };
  for (const auto& entry : pre) add(entry, rule.pre);
  for (const auto& entry : post) add(entry, rule.post);
  pending_.push_back(std::move(rule));
}

void ProtocolBuilder::add_pair_rule(const std::string& name, std::size_t a,
                                    std::size_t b, std::size_t c,
                                    std::size_t d) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_pair_rule after build()");
  }
  const std::size_t n = protocol_.state_names_.size();
  for (std::size_t q : {a, b, c, d}) check_state(q, name);
  Rule rule{name, Config(n, 0), Config(n, 0)};
  rule.pre[a] += 1;
  rule.pre[b] += 1;
  rule.post[c] += 1;
  rule.post[d] += 1;
  if (rule.pre == rule.post) return;  // identity pairs carry no information
  pending_.push_back(std::move(rule));
}

namespace {

std::string trim(const std::string& text) {
  std::size_t first = text.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  std::size_t last = text.find_last_not_of(" \t");
  return text.substr(first, last - first + 1);
}

}  // namespace

std::size_t ProtocolBuilder::state(const std::string& name, Output output) {
  return add_state(name, output == Output::kOne);
}

void ProtocolBuilder::initial(const std::string& name) {
  add_input(state_id(name, "<input>"));
}

void ProtocolBuilder::rule(const std::string& spec) {
  const std::size_t arrow = spec.find("->");
  if (arrow == std::string::npos) {
    throw std::invalid_argument("ProtocolBuilder: rule '" + spec +
                                "' has no '->'");
  }
  const auto parse_pair = [&](const std::string& side) {
    const std::size_t plus = side.find('+');
    if (plus == std::string::npos) {
      throw std::invalid_argument("ProtocolBuilder: rule '" + spec +
                                  "' side '" + side + "' is not a pair");
    }
    return std::make_pair(state_id(trim(side.substr(0, plus)), spec),
                          state_id(trim(side.substr(plus + 1)), spec));
  };
  const auto pre = parse_pair(spec.substr(0, arrow));
  const auto post = parse_pair(spec.substr(arrow + 2));
  add_pair_rule(trim(spec), pre.first, pre.second, post.first, post.second);
}

std::size_t ProtocolBuilder::state_id(const std::string& name,
                                      const std::string& where) const {
  const auto it = protocol_.state_index_.find(name);
  if (it == protocol_.state_index_.end()) {
    throw std::invalid_argument("ProtocolBuilder: '" + where +
                                "' references unknown state '" + name + "'");
  }
  return it->second;
}

void ProtocolBuilder::check_state(std::size_t state,
                                  const std::string& rule) const {
  if (state >= protocol_.state_names_.size()) {
    throw std::invalid_argument("ProtocolBuilder: rule '" + rule +
                                "' references state " + std::to_string(state) +
                                " before it was added");
  }
}

Protocol ProtocolBuilder::build() {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: build() called twice");
  }
  built_ = true;
  const std::size_t n = protocol_.state_names_.size();
  protocol_.net_ = petri::PetriNet(n);
  for (Rule& rule : pending_) {
    // States may have been added after the rule; pad to the final count.
    rule.pre.resize(n, 0);
    rule.post.resize(n, 0);
    const Count consumed = Protocol::population(rule.pre);
    const Count produced = Protocol::population(rule.post);
    if (consumed != produced) {
      throw std::invalid_argument("transition '" + rule.name +
                                  "': not conservative (consumes " +
                                  std::to_string(consumed) + ", produces " +
                                  std::to_string(produced) + ")");
    }
    if (consumed == 0) {
      throw std::invalid_argument("transition '" + rule.name + "': empty");
    }
    if (rule.pre == rule.post) {
      throw std::invalid_argument("transition '" + rule.name + "': identity");
    }
    protocol_.net_.add(std::move(rule.pre), std::move(rule.post));
  }
  pending_.clear();
  return std::move(protocol_);
}

}  // namespace core
}  // namespace ppsc
