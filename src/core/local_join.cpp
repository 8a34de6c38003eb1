#include "core/local_join.hpp"

#include <cassert>

namespace paralagg::core {

LocalJoin::LocalJoin(const JoinRule& rule, const storage::TupleBTree& inner, bool probe_is_a)
    : rule_(&rule), probe_is_a_(probe_is_a), jcc_(rule.a->jcc()), cursor_(inner.cursor()) {
  assert((probe_is_a || !rule.anti) && "an antijoin probes with side A");
  assert(jcc_ == rule.b->jcc() && "join sides must agree on join-column count");
}

void LocalJoin::seek_run() {
  const std::span<const value_t> key(run_key_);
  cursor_.seek(key);
  ++counts_.probe_seeks;
  begin_ = cursor_.position();
  nmatch_ = 0;
  for (; cursor_.valid() && cursor_.matches(key); cursor_.next()) ++nmatch_;
  sought_ = true;
}

}  // namespace paralagg::core
