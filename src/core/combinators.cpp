#include "core/combinators.h"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

namespace ppsc {
namespace core {

namespace {

// Expands a width-2 transition into its two (pre, post) slots, pairing
// pre slot i with post slot i. Either pairing yields the same component
// projections, which is all the product correctness argument needs.
struct PairRule {
  std::array<std::size_t, 2> pre;
  std::array<std::size_t, 2> post;
};

std::vector<PairRule> pair_rules(const Protocol& p, const char* combinator) {
  std::vector<PairRule> rules;
  for (std::size_t i = 0; i < p.net().num_transitions(); ++i) {
    const petri::Transition& t = p.net().transition(i);
    if (t.width() != 2) {
      throw std::invalid_argument(std::string(combinator) +
                                  ": operand transition " + std::to_string(i) +
                                  " has width != 2");
    }
    PairRule rule;
    std::size_t slot = 0;
    for (std::size_t q = 0; q < t.pre.size(); ++q) {
      for (Count k = 0; k < t.pre[q]; ++k) rule.pre[slot++] = q;
    }
    slot = 0;
    for (std::size_t q = 0; q < t.post.size(); ++q) {
      for (Count k = 0; k < t.post[q]; ++k) rule.post[slot++] = q;
    }
    rules.push_back(rule);
  }
  return rules;
}

ConstructedProtocol product(const ConstructedProtocol& lhs,
                            const ConstructedProtocol& rhs, bool conj) {
  const char* combinator = conj ? "conjunction" : "disjunction";
  const Protocol& pa = lhs.protocol;
  const Protocol& pb = rhs.protocol;
  if (pa.num_leaders() != 0 || pb.num_leaders() != 0) {
    throw std::invalid_argument(std::string(combinator) +
                                ": operands must be leaderless");
  }
  if (pa.input_arity() != pb.input_arity()) {
    throw std::invalid_argument(std::string(combinator) +
                                ": operands must have equal input arity");
  }

  ProtocolBuilder b;
  const std::size_t nb = pb.num_states();
  auto pair_id = [nb](std::size_t qa, std::size_t qb) {
    return qa * nb + qb;
  };
  for (std::size_t qa = 0; qa < pa.num_states(); ++qa) {
    for (std::size_t qb = 0; qb < nb; ++qb) {
      const bool out = conj ? (pa.output(qa) && pb.output(qb))
                            : (pa.output(qa) || pb.output(qb));
      b.add_state(pa.state_name(qa) + "|" + pb.state_name(qb), out);
    }
  }
  for (std::size_t dim = 0; dim < pa.input_arity(); ++dim) {
    b.add_input(pair_id(pa.input_state(dim), pb.input_state(dim)));
  }
  // A-steps: apply an A-rule to the A-components of two agents whose
  // B-components are arbitrary and carried along; symmetrically B-steps.
  // For a fully symmetric operand rule the (b1, b2) and (b2, b1)
  // instantiations are the same multiset transition; emit one copy so
  // transition counts and scheduler weights are not doubled.
  for (const PairRule& rule : pair_rules(pa, combinator)) {
    const bool symmetric =
        rule.pre[0] == rule.pre[1] && rule.post[0] == rule.post[1];
    for (std::size_t b1 = 0; b1 < nb; ++b1) {
      for (std::size_t b2 = symmetric ? b1 : 0; b2 < nb; ++b2) {
        b.add_pair_rule("A-step", pair_id(rule.pre[0], b1),
                        pair_id(rule.pre[1], b2), pair_id(rule.post[0], b1),
                        pair_id(rule.post[1], b2));
      }
    }
  }
  for (const PairRule& rule : pair_rules(pb, combinator)) {
    const bool symmetric =
        rule.pre[0] == rule.pre[1] && rule.post[0] == rule.post[1];
    for (std::size_t a1 = 0; a1 < pa.num_states(); ++a1) {
      for (std::size_t a2 = symmetric ? a1 : 0; a2 < pa.num_states(); ++a2) {
        b.add_pair_rule("B-step", pair_id(a1, rule.pre[0]),
                        pair_id(a2, rule.pre[1]), pair_id(a1, rule.post[0]),
                        pair_id(a2, rule.post[1]));
      }
    }
  }

  Predicate p;
  p.name = "(" + lhs.predicate.name + (conj ? ") and (" : ") or (") +
           rhs.predicate.name + ")";
  p.arity = lhs.predicate.arity;
  const Predicate fa = lhs.predicate;
  const Predicate fb = rhs.predicate;
  if (conj) {
    p.fn = [fa, fb](const std::vector<Count>& x) { return fa(x) && fb(x); };
  } else {
    p.fn = [fa, fb](const std::vector<Count>& x) { return fa(x) || fb(x); };
  }
  return {std::string(combinator), b.build(), p};
}

}  // namespace

ConstructedProtocol negate(const ConstructedProtocol& cp) {
  ProtocolBuilder b;
  const Protocol& src = cp.protocol;
  for (std::size_t q = 0; q < src.num_states(); ++q) {
    b.add_state(src.state_name(q), !src.output(q));
  }
  for (std::size_t dim = 0; dim < src.input_arity(); ++dim) {
    b.add_input(src.input_state(dim));
  }
  for (std::size_t q = 0; q < src.num_states(); ++q) {
    if (src.leaders(q) > 0) b.add_leaders(q, src.leaders(q));
  }
  for (std::size_t i = 0; i < src.net().num_transitions(); ++i) {
    const petri::Transition& t = src.net().transition(i);
    std::vector<std::pair<std::size_t, Count>> pre;
    std::vector<std::pair<std::size_t, Count>> post;
    for (std::size_t q = 0; q < t.pre.size(); ++q) {
      if (t.pre[q] > 0) pre.emplace_back(q, t.pre[q]);
      if (t.post[q] > 0) post.emplace_back(q, t.post[q]);
    }
    b.add_rule(std::to_string(i), pre, post);
  }
  Predicate p;
  p.name = "not(" + cp.predicate.name + ")";
  p.arity = cp.predicate.arity;
  const Predicate f = cp.predicate;
  p.fn = [f](const std::vector<Count>& x) { return !f(x); };
  return {"not " + cp.family, b.build(), p};
}

ConstructedProtocol conjunction(const ConstructedProtocol& lhs,
                                const ConstructedProtocol& rhs) {
  return product(lhs, rhs, true);
}

ConstructedProtocol disjunction(const ConstructedProtocol& lhs,
                                const ConstructedProtocol& rhs) {
  return product(lhs, rhs, false);
}

ConstructedProtocol interval_counting(Count lo, Count hi) {
  if (lo < 1 || hi < lo) {
    throw std::invalid_argument("interval_counting: need 1 <= lo <= hi");
  }
  ConstructedProtocol cp =
      conjunction(unary_counting(lo), negate(unary_counting(hi + 1)));
  cp.family = "interval";
  cp.predicate.name =
      std::to_string(lo) + " <= x <= " + std::to_string(hi);
  return cp;
}

}  // namespace core
}  // namespace ppsc
