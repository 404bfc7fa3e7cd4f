// The eight causality relations of Table 1 (from Kshemkalyani, JCSS 1996)
// and the 32-relation set R between nonatomic poset events obtained by
// instantiating each of the eight with one of the two proxies of X and of Y.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>

#include "nonatomic/interval.hpp"

namespace syncon {

/// Table 1. The primed relations reverse the quantifier order; R4 and R4'
/// are logically identical, as are R1 and R1' (kept distinct for fidelity).
enum class Relation : std::uint8_t {
  R1,   // ∀x ∀y : x ≺ y
  R1p,  // ∀y ∀x : x ≺ y
  R2,   // ∀x ∃y : x ≺ y
  R2p,  // ∃y ∀x : x ≺ y
  R3,   // ∃x ∀y : x ≺ y
  R3p,  // ∀y ∃x : x ≺ y
  R4,   // ∃x ∃y : x ≺ y
  R4p,  // ∃y ∃x : x ≺ y
};

inline constexpr std::array<Relation, 8> kAllRelations = {
    Relation::R1, Relation::R1p, Relation::R2, Relation::R2p,
    Relation::R3, Relation::R3p, Relation::R4, Relation::R4p};

const char* to_string(Relation r);
std::ostream& operator<<(std::ostream& os, Relation r);

/// Whether ≺ is taken strictly (the paper's definitions) or as its reflexive
/// closure ⪯ (what the linear-time conditions compute; see DESIGN.md §3.3 —
/// the two agree whenever X and Y are disjoint).
enum class Semantics : std::uint8_t { Strict, Weak };

const char* to_string(Semantics s);

/// One element of the 32-relation set R: a Table 1 relation applied to a
/// chosen proxy of X and a chosen proxy of Y.
struct RelationId {
  Relation relation;
  ProxyKind proxy_x;
  ProxyKind proxy_y;

  friend bool operator==(const RelationId&, const RelationId&) = default;
};

/// All 32 members of R, ordered by (relation, proxy_x, proxy_y).
std::array<RelationId, 32> all_relation_ids();

/// Position of `id` in all_relation_ids(): 4·relation + 2·proxy_x + proxy_y
/// (Begin = 0, End = 1).
constexpr std::size_t relation_index(const RelationId& id) {
  return static_cast<std::size_t>(id.relation) * 4 +
         (id.proxy_x == ProxyKind::End ? 2u : 0u) +
         (id.proxy_y == ProxyKind::End ? 1u : 0u);
}

/// Inverse of relation_index: the k-th member of all_relation_ids().
constexpr RelationId relation_at(std::size_t k) {
  return RelationId{static_cast<Relation>(k / 4),
                    (k & 2) != 0 ? ProxyKind::End : ProxyKind::Begin,
                    (k & 1) != 0 ? ProxyKind::End : ProxyKind::Begin};
}

/// A subset of R as a 32-bit mask: bit k stands for relation_at(k). The
/// all-relations answer of one pair (Problem 4 ii) is one such value.
/// Iteration yields the members in all_relation_ids() order.
class RelationSet {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = RelationId;
    using difference_type = std::ptrdiff_t;
    using reference = RelationId;

    constexpr iterator() = default;
    constexpr RelationId operator*() const {
      return relation_at(static_cast<std::size_t>(std::countr_zero(rest_)));
    }
    constexpr iterator& operator++() {
      rest_ &= rest_ - 1;  // drop the lowest member
      return *this;
    }
    constexpr iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    friend constexpr bool operator==(iterator, iterator) = default;

   private:
    friend class RelationSet;
    constexpr explicit iterator(std::uint32_t rest) : rest_(rest) {}
    std::uint32_t rest_ = 0;
  };

  constexpr RelationSet() = default;
  constexpr explicit RelationSet(std::uint32_t bits) : bits_(bits) {}

  constexpr std::uint32_t bits() const { return bits_; }
  constexpr void insert(const RelationId& id) {
    bits_ |= std::uint32_t{1} << relation_index(id);
  }
  constexpr bool contains(const RelationId& id) const {
    return (bits_ >> relation_index(id) & 1u) != 0;
  }
  constexpr std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  constexpr bool empty() const { return bits_ == 0; }

  constexpr iterator begin() const { return iterator(bits_); }
  constexpr iterator end() const { return iterator(0); }

  friend constexpr bool operator==(RelationSet, RelationSet) = default;

 private:
  std::uint32_t bits_ = 0;
};

static_assert(std::forward_iterator<RelationSet::iterator>);

/// "{R1(L(X), L(Y)), ...}"-style rendering.
std::ostream& operator<<(std::ostream& os, const RelationSet& set);

/// "R2'(U(X), L(Y))"-style rendering.
std::string to_string(const RelationId& id);
std::ostream& operator<<(std::ostream& os, const RelationId& id);

}  // namespace syncon
