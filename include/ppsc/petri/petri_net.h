// General (possibly non-conservative) Petri nets: the one net model of
// the library.
//
// A population protocol (core/protocol.h) owns one of these and its
// builder guarantees conservation; the coverability / Karp-Miller /
// bottom machinery of Sections 5-7 also needs nets that pump (Theorem
// 6.1's whole point is that some places grow without bound), so the
// net itself drops every structural restriction: transitions may create
// or destroy tokens and may even be identities. A protocol's net()
// flows into every engine as is.
//
// Two notions of sub-net are used by the paper and kept distinct here:
//
//  * restrict(keep) -- the sub-net T|Q: only transitions whose pre AND
//    post are entirely supported on the kept places survive (Section 8
//    restricts Example 4.2 to P \ I this way).
//  * project(keep)  -- every transition survives with its pre/post
//    truncated to the kept places. This is the dynamics seen on Q when
//    all other places hold omega many tokens, which is how bottom
//    components and control-state nets look at a marking (Section 6-7).
//
// Besides the dense pre/post vectors, a net has a sparse form of its
// transitions (SparseForm, from PetriNet::sparse()):
//
//  * pre_support(t): the (place, count) entries with pre[place] > 0,
//    in increasing place order;
//  * delta(t): the (place, post - pre) entries with post != pre, in
//    increasing place order (empty for identities);
//  * by_lowest_pre_place(p): the transitions whose lowest pre place is
//    p, in increasing transition index;
//  * empty_pre(): the transitions with an all-zero pre (token
//    creators), in increasing transition index.
//
// Every transition with a non-empty pre lies in exactly one
// by_lowest_pre_place list, so the transitions enabled at a marking are
// the empty-pre ones plus, for each occupied place p, those entries of
// by_lowest_pre_place(p) whose pre support is covered. explore()
// enumerates successors this way; enabled() and fire() also read the
// sparse form. Pre supports and deltas are stored CSR-style: one
// offsets array plus one flat entry array each.
//
// The sparse form is built in one pass by the first sparse() call after
// the last add(), not by add() itself: scanning every place of every
// transition costs about as much as copying the dense vectors, and
// nets built only to be restricted, projected or counted (protocol
// construction, restrict(), project()) would pay it for nothing. Copies
// of a net share the form it has built, so every engine that reads a
// protocol's net() reuses one sparse form.

#ifndef PPSC_PETRI_PETRI_NET_H
#define PPSC_PETRI_PETRI_NET_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "petri/config.h"

namespace ppsc {
namespace petri {

struct Transition {
  Config pre;
  Config post;

  // Number of tokens consumed (the interaction width of Section 4).
  Count width() const { return pre.total(); }
};

// One entry of a transition's sparse form: `amount` tokens (a pre
// count, or a signed post - pre change) on `place`.
struct SparseEntry {
  std::uint32_t place;
  Count amount;
};

// A contiguous run of sparse entries (a view into a SparseForm).
struct SparseRange {
  const SparseEntry* first;
  const SparseEntry* last;

  const SparseEntry* begin() const { return first; }
  const SparseEntry* end() const { return last; }
};

// The sparse form of a list of transitions over `num_states` places
// (see the file comment).
class SparseForm {
 public:
  SparseForm(std::size_t num_states,
             const std::vector<Transition>& transitions);

  SparseRange pre_support(std::size_t t) const {
    return {pre_entries_.data() + pre_offsets_[t],
            pre_entries_.data() + pre_offsets_[t + 1]};
  }
  SparseRange delta(std::size_t t) const {
    return {delta_entries_.data() + delta_offsets_[t],
            delta_entries_.data() + delta_offsets_[t + 1]};
  }
  const std::vector<std::size_t>& by_lowest_pre_place(std::size_t p) const {
    return by_lowest_pre_place_[p];
  }
  const std::vector<std::size_t>& empty_pre() const { return empty_pre_; }

  // Whether `config` covers transition t's pre (no dimension check).
  bool enabled(std::size_t t, const Config& config) const {
    for (const SparseEntry& e : pre_support(t)) {
      if (config[e.place] < e.amount) return false;
    }
    return true;
  }

 private:
  std::vector<std::size_t> pre_offsets_;
  std::vector<SparseEntry> pre_entries_;
  std::vector<std::size_t> delta_offsets_;
  std::vector<SparseEntry> delta_entries_;
  std::vector<std::vector<std::size_t>> by_lowest_pre_place_;
  std::vector<std::size_t> empty_pre_;
};

class PetriNet {
 public:
  explicit PetriNet(std::size_t num_states = 0) : num_states_(num_states) {}

  std::size_t num_states() const { return num_states_; }
  std::size_t num_transitions() const { return transitions_.size(); }
  const Transition& transition(std::size_t i) const { return transitions_[i]; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  // The sparse form of the transitions, built by the first call after
  // the last add() and reused until the next one. Concurrent calls on
  // one net are safe.
  const SparseForm& sparse() const;

  // Appends a transition; only dimensions are checked (negative counts
  // are rejected, identities and non-conservative effects are allowed).
  void add(Config pre, Config post);

  // Largest entry over all pre and post vectors (||T||_inf).
  Count norm_inf() const;

  // Largest transition width.
  Count max_width() const;

  // Both read the sparse form; `config` must have num_states() places.
  bool enabled(std::size_t t, const Config& config) const;
  Config fire(std::size_t t, const Config& config) const;

  // Sub-net T|Q: keeps the places with keep[p] == true (re-indexed) and
  // only the transitions entirely supported on them.
  PetriNet restrict(const std::vector<bool>& keep) const;

  // Projection: keeps every transition, truncating pre/post to the kept
  // places. Transition indices are preserved.
  PetriNet project(const std::vector<bool>& keep) const;

 private:
  // Holds the sparse form once built. Reads of a shared net go through
  // the std::atomic_* shared_ptr functions, so concurrent const use
  // (sparse(), copying) does not race. Copies share the form; a
  // moved-from net rebuilds its own.
  struct SparseCache {
    std::shared_ptr<const SparseForm> form;

    SparseCache() = default;
    SparseCache(const SparseCache& other)
        : form(std::atomic_load(&other.form)) {}
    SparseCache(SparseCache&&) noexcept = default;
    SparseCache& operator=(const SparseCache& other) {
      std::atomic_store(&form, std::atomic_load(&other.form));
      return *this;
    }
    SparseCache& operator=(SparseCache&&) noexcept = default;
  };

  std::size_t num_states_;
  std::vector<Transition> transitions_;
  mutable SparseCache sparse_;
};

// One step of the Q-projected dynamics (the Section 6/7 view with
// omega tokens outside Q): fires `t` restricted to the places with
// keep[p] == true on `marking`, a configuration over those places.
// std::nullopt when the projected pre is not covered. Shared by the
// bottom-witness closure check and ControlStateNet::from_component.
std::optional<Config> projected_step(const Transition& t,
                                     const std::vector<bool>& keep,
                                     const Config& marking);

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_PETRI_NET_H
