// Shape and model invariants of the constructions: the resource counts
// the paper claims (states / width / leaders / transitions) and the
// Petri-net validation rules.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/constructions.h"
#include "core/protocol.h"

namespace core = ppsc::core;

TEST(Protocol, BuilderAndInitialConfig) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  const auto B = b.add_state("B", true);
  b.add_input(A);
  b.add_leaders(B, 2);
  b.add_rule("t", {{A, 1}, {B, 1}}, {{B, 2}});
  const core::Protocol p = b.build();
  EXPECT_EQ(p.num_states(), 2u);
  EXPECT_EQ(p.num_leaders(), 2);
  EXPECT_EQ(p.width(), 2);
  EXPECT_EQ(p.net().num_transitions(), 1u);
  const core::Config c = p.initial_config({3});
  EXPECT_EQ(c[A], 3);
  EXPECT_EQ(c[B], 2);
  EXPECT_EQ(core::Protocol::population(c), 5);
  EXPECT_THROW(p.initial_config({1, 2}), std::invalid_argument);
  EXPECT_THROW(p.initial_config({-1}), std::invalid_argument);
}

TEST(Protocol, BuilderRejectsUnknownStates) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  EXPECT_THROW(b.add_rule("t", {{A, 1}, {A + 1, 1}}, {{A, 2}}),
               std::invalid_argument);
  EXPECT_THROW(b.add_pair_rule("t", A, A, A, A + 1), std::invalid_argument);
  EXPECT_THROW(b.add_input(A + 1), std::invalid_argument);
  EXPECT_THROW(b.add_leaders(A + 1, 1), std::invalid_argument);
  EXPECT_THROW(b.add_leaders(A, -2), std::invalid_argument);
}

TEST(Protocol, BuilderStringApiParsesPairRules) {
  core::ProtocolBuilder b;
  b.state("i", core::Output::kZero);
  b.state("Y", core::Output::kOne);
  b.initial("i");
  b.rule("i + i -> Y + Y");
  b.rule("  Y +  i ->Y+ Y ");  // whitespace is insignificant
  const core::Protocol p = b.build();
  EXPECT_EQ(p.num_states(), 2u);
  EXPECT_FALSE(p.output(0));
  EXPECT_TRUE(p.output(1));
  EXPECT_EQ(p.input_arity(), 1u);
  EXPECT_EQ(p.input_state(0), 0u);
  ASSERT_EQ(p.net().num_transitions(), 2u);
  EXPECT_EQ(p.net().transition(0).pre.raw(), (core::Config{2, 0}));
  EXPECT_EQ(p.net().transition(0).post.raw(), (core::Config{0, 2}));
  EXPECT_EQ(p.net().transition(1).pre.raw(), (core::Config{1, 1}));
  EXPECT_EQ(p.net().transition(1).post.raw(), (core::Config{0, 2}));
}

TEST(Protocol, BuilderStringApiRejectsBadSpecs) {
  core::ProtocolBuilder b;
  b.state("i", core::Output::kZero);
  b.state("Y", core::Output::kOne);
  EXPECT_THROW(b.initial("missing"), std::invalid_argument);
  EXPECT_THROW(b.rule("i + i -> Y + Z"), std::invalid_argument);  // unknown
  EXPECT_THROW(b.rule("i + i Y + Y"), std::invalid_argument);  // no arrow
  EXPECT_THROW(b.rule("i -> Y"), std::invalid_argument);  // not a pair
  EXPECT_THROW(b.rule("i + i -> Y"), std::invalid_argument);
}

TEST(Protocol, BuilderRejectsUseAfterBuild) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  b.add_input(A);
  b.build();
  EXPECT_THROW(b.add_state("B", true), std::logic_error);
  EXPECT_THROW(b.add_input(A), std::logic_error);
  EXPECT_THROW(b.add_leaders(A, 1), std::logic_error);
  EXPECT_THROW(b.build(), std::logic_error);
}

namespace {

// The std::invalid_argument message `fn` throws, or "" if it returns.
template <typename Fn>
std::string invalid_argument_message(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

}  // namespace

TEST(ProtocolBuilder, RejectsInvalidRules) {
  // Each case adds one rule named "bad" beside a valid one to a fresh
  // two-state builder and expects the error, from add_rule or build, to
  // name it.
  const auto rejection = [](auto add_bad_rule) {
    return invalid_argument_message([&] {
      core::ProtocolBuilder b;
      b.add_state("A", false);
      b.add_state("B", true);
      b.add_rule("good", {{0, 2}}, {{1, 2}});
      add_bad_rule(b);
      b.build();
    });
  };
  const auto has = [](const std::string& message, const std::string& part) {
    return message.find(part) != std::string::npos;
  };

  const std::string negative = rejection(
      [](core::ProtocolBuilder& b) { b.add_rule("bad", {{0, -1}}, {}); });
  EXPECT_TRUE(has(negative, "'bad'") && has(negative, "negative")) << negative;
  // A negative entry is rejected even when another entry on the same
  // state would make the sum positive.
  const std::string mixed = rejection([](core::ProtocolBuilder& b) {
    b.add_rule("bad", {{0, 2}, {0, -1}}, {{1, 1}});
  });
  EXPECT_TRUE(has(mixed, "'bad'") && has(mixed, "negative")) << mixed;

  const std::string leaky = rejection(
      [](core::ProtocolBuilder& b) { b.add_rule("bad", {{0, 1}}, {{1, 2}}); });
  EXPECT_TRUE(has(leaky, "'bad'") && has(leaky, "not conservative"))
      << leaky;

  const std::string empty =
      rejection([](core::ProtocolBuilder& b) { b.add_rule("bad", {}, {}); });
  EXPECT_TRUE(has(empty, "'bad'") && has(empty, "empty")) << empty;

  const std::string identity = rejection([](core::ProtocolBuilder& b) {
    b.add_rule("bad", {{0, 1}, {1, 1}}, {{1, 1}, {0, 1}});
  });
  EXPECT_TRUE(has(identity, "'bad'") && has(identity, "identity"))
      << identity;

  const std::string unknown = rejection(
      [](core::ProtocolBuilder& b) { b.add_rule("bad", {{2, 1}}, {{0, 1}}); });
  EXPECT_TRUE(has(unknown, "'bad'") && has(unknown, "state 2")) << unknown;
}

TEST(Example41, PaperShape) {
  for (core::Count n : {1, 2, 5, 9}) {
    const auto cp = core::example_4_1(n);
    EXPECT_EQ(cp.protocol.num_states(), 2u) << "n=" << n;
    EXPECT_EQ(cp.protocol.width(), n) << "n=" << n;
    EXPECT_EQ(cp.protocol.num_leaders(), 0) << "n=" << n;
    EXPECT_EQ(cp.protocol.net().num_transitions(),
              static_cast<std::size_t>(n))
        << "n=" << n;
    EXPECT_FALSE(cp.predicate({n - 1}));
    EXPECT_TRUE(cp.predicate({n}));
  }
}

TEST(Example42, PaperShape) {
  for (core::Count n : {1, 4, 7}) {
    const auto cp = core::example_4_2(n);
    EXPECT_EQ(cp.protocol.num_states(), 6u) << "n=" << n;
    EXPECT_EQ(cp.protocol.width(), 2) << "n=" << n;
    EXPECT_EQ(cp.protocol.num_leaders(), n) << "n=" << n;
    EXPECT_EQ(cp.protocol.net().num_transitions(), 5u) << "n=" << n;
  }
}

TEST(CountingFamilies, StateCountShapes) {
  // unary: 2(n+1) states; binary: log2(n)+2; belief: n; and the two
  // O(1)-state examples from the paper.
  EXPECT_EQ(core::unary_counting(8).protocol.num_states(), 18u);
  EXPECT_EQ(core::binary_counting(8).protocol.num_states(), 5u);
  EXPECT_EQ(core::binary_counting(32).protocol.num_states(), 7u);
  EXPECT_EQ(core::threshold_belief(8).protocol.num_states(), 8u);
  EXPECT_THROW(core::binary_counting(6), std::invalid_argument);
  EXPECT_THROW(core::binary_counting(1), std::invalid_argument);

  const auto families = core::counting_families(8);
  ASSERT_EQ(families.size(), 5u);
  for (const auto& family : families) {
    EXPECT_EQ(family.protocol.input_arity(), 1u) << family.family;
    EXPECT_TRUE(family.predicate({8})) << family.family;
    EXPECT_FALSE(family.predicate({7})) << family.family;
  }
  // Only Example 4.1 pays width; only Example 4.2 pays leaders.
  EXPECT_EQ(core::counting_families(4)[0].protocol.width(), 2);
}

TEST(ModuloAndMajority, Predicates) {
  const auto mod = core::modulo_counting(5, 2);
  EXPECT_EQ(mod.protocol.num_states(), 7u);
  EXPECT_TRUE(mod.predicate({7}));
  EXPECT_FALSE(mod.predicate({10}));
  EXPECT_THROW(core::modulo_counting(1, 0), std::invalid_argument);
  EXPECT_THROW(core::modulo_counting(3, 3), std::invalid_argument);

  const auto maj = core::majority();
  EXPECT_EQ(maj.protocol.num_states(), 4u);
  EXPECT_EQ(maj.protocol.input_arity(), 2u);
  EXPECT_TRUE(maj.predicate({3, 2}));
  EXPECT_FALSE(maj.predicate({2, 2}));
  EXPECT_FALSE(maj.predicate({1, 3}));
}
