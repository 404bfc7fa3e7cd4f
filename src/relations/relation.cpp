#include "relations/relation.hpp"

#include <ostream>

namespace syncon {

const char* to_string(Relation r) {
  switch (r) {
    case Relation::R1: return "R1";
    case Relation::R1p: return "R1'";
    case Relation::R2: return "R2";
    case Relation::R2p: return "R2'";
    case Relation::R3: return "R3";
    case Relation::R3p: return "R3'";
    case Relation::R4: return "R4";
    case Relation::R4p: return "R4'";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, Relation r) {
  return os << to_string(r);
}

const char* to_string(Semantics s) {
  return s == Semantics::Strict ? "strict(≺)" : "weak(⪯)";
}

std::array<RelationId, 32> all_relation_ids() {
  std::array<RelationId, 32> ids;
  for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = relation_at(k);
  return ids;
}

std::string to_string(const RelationId& id) {
  std::string s = to_string(id.relation);
  s += '(';
  s += to_string(id.proxy_x);
  s += "(X), ";
  s += to_string(id.proxy_y);
  s += "(Y))";
  return s;
}

std::ostream& operator<<(std::ostream& os, const RelationId& id) {
  return os << to_string(id);
}

std::ostream& operator<<(std::ostream& os, const RelationSet& set) {
  os << '{';
  const char* sep = "";
  for (const RelationId& id : set) {
    os << sep << id;
    sep = ", ";
  }
  return os << '}';
}

}  // namespace syncon
