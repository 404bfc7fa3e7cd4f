#include "relations/fast.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon {

bool evaluate_fast(Relation r, const EventCuts& x, const EventCuts& y,
                   QueryCost& counter) {
  SYNCON_REQUIRE(&x.timestamps() == &y.timestamps(),
                 "cut timestamps of different executions");
  return evaluate_fast(r, x.view(), y.view(), counter);
}

RelationSet evaluate_all_fast(const std::array<CutView, 2>& x,
                              const std::array<CutView, 2>& y,
                              QueryCost& counter) {
  // Relation r under proxy combination c = 2·proxy_x + proxy_y sits at bit
  // 4·r + c (relation_index): each answer sets its relation's bit for
  // combination 0, and the combination's mask is shifted into place.
  constexpr auto bit = [](Relation r) {
    return std::uint32_t{1} << (4 * static_cast<unsigned>(r));
  };
  QueryCost local;
  std::uint32_t bits = 0;
  for (unsigned px = 0; px < 2; ++px) {
    for (unsigned py = 0; py < 2; ++py) {
      const CutView& vx = x[px];
      const CutView& vy = y[py];
      std::uint32_t mask = 0;
      if (r1_holds(vx, vy, local)) {
        mask |= bit(Relation::R1) | bit(Relation::R1p);
      }
      if (r2_holds(vx, vy, local)) mask |= bit(Relation::R2);
      if (r2p_holds(vx, vy, local)) mask |= bit(Relation::R2p);
      if (r3_holds(vx, vy, local)) mask |= bit(Relation::R3);
      if (r3p_holds(vx, vy, local)) mask |= bit(Relation::R3p);
      if (r4_holds(vx, vy, local)) {
        mask |= bit(Relation::R4) | bit(Relation::R4p);
      }
      bits |= mask << (2 * px + py);
    }
  }
  counter += local;
  return RelationSet(bits);
}

std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
    case Relation::R3:
      return n_x;
    case Relation::R2p:
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R2p:
    case Relation::R3:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
      return n_x;
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

}  // namespace syncon
