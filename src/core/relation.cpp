#include "core/relation.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "vmpi/crc32.hpp"
#include "vmpi/row_frame.hpp"

namespace paralagg::core {

Relation::Relation(vmpi::Comm& comm, RelationConfig cfg)
    : comm_(&comm),
      cfg_(std::move(cfg)),
      num_buckets_(static_cast<std::uint32_t>(comm.size())),
      sub_buckets_(cfg_.sub_buckets),
      full_(cfg_.arity, cfg_.arity - cfg_.dep_arity),
      delta_(cfg_.arity, cfg_.arity - cfg_.dep_arity),
      staging_(cfg_.arity, cfg_.arity - cfg_.dep_arity, cfg_.aggregator.get()) {
  validate_config();
  // A relation with no non-join independent columns has nothing for H2 to
  // hash; sub-bucketing cannot apply (all tuples of a bucket would land in
  // sub-bucket 0 anyway).
  if (effective_sub_cols() == 0) sub_buckets_ = 1;
}

void Relation::validate_config() const {
  if (cfg_.arity == 0) throw std::invalid_argument(cfg_.name + ": arity must be positive");
  if (cfg_.jcc == 0 || cfg_.jcc > cfg_.arity) {
    throw std::invalid_argument(cfg_.name + ": jcc out of range");
  }
  if (cfg_.dep_arity >= cfg_.arity) {
    throw std::invalid_argument(cfg_.name + ": at least one independent column required");
  }
  // The paper's restriction (§III-A): aggregated columns are never joined
  // upon within a fixed point.  Structurally: join columns must lie in the
  // independent prefix.
  if (cfg_.jcc > cfg_.arity - cfg_.dep_arity) {
    throw std::invalid_argument(cfg_.name +
                                ": join columns must not include aggregated columns");
  }
  if (cfg_.dep_arity > 0) {
    if (!cfg_.aggregator) {
      throw std::invalid_argument(cfg_.name + ": aggregated relation needs an aggregator");
    }
    if (cfg_.aggregator->dep_arity() != cfg_.dep_arity) {
      throw std::invalid_argument(cfg_.name + ": aggregator dep_arity mismatch");
    }
  }
  if (cfg_.sub_buckets < 1) throw std::invalid_argument(cfg_.name + ": sub_buckets < 1");
}

std::uint32_t Relation::bucket_of(std::span<const value_t> tuple) const {
  return static_cast<std::uint32_t>(
      storage::hash_columns(tuple.subspan(0, cfg_.jcc), storage::kBucketSeed) % num_buckets_);
}

std::uint32_t Relation::sub_bucket_of(std::span<const value_t> tuple) const {
  return sub_bucket_for(tuple, sub_buckets_);
}

int Relation::rank_of(std::uint32_t bucket, std::uint32_t sub) const {
  return rank_for(bucket, sub, sub_buckets_);
}

std::uint32_t Relation::sub_bucket_for(std::span<const value_t> tuple,
                                       int sub_buckets) const {
  if (sub_buckets == 1) return 0;
  const auto cols = tuple.subspan(cfg_.jcc, effective_sub_cols());
  return static_cast<std::uint32_t>(storage::hash_columns(cols, storage::kSubBucketSeed) %
                                    static_cast<std::uint64_t>(sub_buckets));
}

int Relation::rank_for(std::uint32_t bucket, std::uint32_t sub, int sub_buckets) const {
  const auto n = static_cast<std::uint64_t>(comm_->size());
  return static_cast<int>((static_cast<std::uint64_t>(bucket) *
                               static_cast<std::uint64_t>(sub_buckets) +
                           sub) %
                          n);
}

int Relation::owner_rank(std::span<const value_t> tuple) const {
  return rank_of(bucket_of(tuple), sub_bucket_of(tuple));
}

int Relation::route_rank(std::span<const value_t> tuple) const {
  if (key_is_hot(tuple)) {
    // Hot keys spread by H2 over the full rank range: rank_for with
    // sub_buckets == nranks collapses to the sub-bucket index itself, and
    // dependent columns stay out of H2, so equal-key folds still collide.
    return static_cast<int>(sub_bucket_for(tuple, comm_->size()));
  }
  return owner_rank(tuple);
}

std::uint64_t Relation::adopt_hot_keys(std::vector<Tuple> keys) {
  assert(staged_count() == 0 && "hot-set switches must run between iterations");
  if (effective_sub_cols() == 0) return 0;  // H2 has nothing to spread by

  // Only keys whose hotness *changed* move; a key hot before and after
  // keeps its placement because the spread rank ignores the hot set.
  std::vector<Tuple> changed;
  for (const auto& k : keys) {
    if (hot_set_.count(k) == 0) changed.push_back(k);
  }
  for (const auto& k : hot_keys_) {
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) changed.push_back(k);
  }

  hot_keys_ = std::move(keys);
  hot_set_.clear();
  for (const auto& k : hot_keys_) hot_set_.insert(k);

  const auto n = static_cast<std::size_t>(comm_->size());
  const auto me = comm_->rank();
  std::uint64_t moved = 0;
  for (const Version v : {Version::kFull, Version::kDelta}) {
    std::vector<std::vector<value_t>> outgoing(n);
    for (const auto& key : changed) {
      tree(v).scan_prefix(key.view(), [&](std::span<const value_t> t) {
        const int dst = route_rank(t);
        if (dst == me) return;  // already in place under the new layout
        auto& rows = outgoing[static_cast<std::size_t>(dst)];
        rows.insert(rows.end(), t.begin(), t.end());
        ++moved;
      });
    }
    for (const auto& rows : outgoing) {
      for (std::size_t off = 0; off < rows.size(); off += cfg_.arity) {
        tree(v).erase_key(std::span<const value_t>(rows).subspan(off, indep_arity()));
      }
    }
    const auto got = vmpi::exchange_rows(*comm_, cfg_.arity, std::move(outgoing),
                                         /*faultable=*/false);
    for (std::size_t off = 0; off < got.size(); off += cfg_.arity) {
      tree(v).insert(std::span<const value_t>(got).subspan(off, cfg_.arity));
    }
  }
  return moved;
}

void Relation::ranks_of_bucket(std::uint32_t bucket, std::vector<int>& out) const {
  out.clear();
  for (int s = 0; s < sub_buckets_; ++s) {
    const int r = rank_of(bucket, static_cast<std::uint32_t>(s));
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
}

void Relation::stage(std::span<const value_t> tuple) {
  assert(tuple.size() == cfg_.arity);
  stage_rows(tuple);
}

void Relation::stage_rows(std::span<const value_t> rows) {
  const std::size_t ar = cfg_.arity;
  assert(rows.size() % ar == 0 && "ragged bulk staging batch");
  for (std::size_t off = 0; off < rows.size(); off += ar) {
    const auto t = rows.subspan(off, ar);
    assert(route_rank(t) == comm_->rank() && "tuple staged on the wrong rank");
    // Count the derivation event before any same-iteration collapse.
    if (support_counts_) ++support_[Tuple(t.first(indep_arity()))];
  }
  staging_.append(rows);
}

MaterializeResult Relation::materialize() {
  staging_.fold();
  const std::span<const value_t> run = staging_.values();
  const std::size_t ar = cfg_.arity;
  const std::size_t ka = indep_arity();
  MaterializeResult res;
  res.staged = staging_.row_count();

  if (aggregated() && cfg_.agg_mode == AggMode::kRefresh) {
    // Jacobi-style replacement: the run *is* the next state.
    full_.assign_sorted(run);
    delta_.clear();
    res.inserted = res.staged;
  } else {
    // Lattice (or plain) mode: fused dedup/aggregation (paper §IV-A).  The
    // next delta is every inserted or ascended row, in key order.
    std::vector<value_t> fresh;
    std::vector<value_t> merged(cfg_.dep_arity);
    const auto fold = [&](std::span<value_t> cur, std::span<const value_t> in) {
      if (!aggregated()) return false;  // plain: the key is the whole tuple
      const auto cur_dep = cur.subspan(ka);
      std::copy(cur_dep.begin(), cur_dep.end(), merged.begin());
      cfg_.aggregator->partial_agg(cur_dep, in.subspan(ka), merged);
      if (std::equal(merged.begin(), merged.end(), cur_dep.begin())) {
        return false;  // no new information: never enters delta, never moves
      }
      // Lattice law: cur ⊔ x must sit above cur.  A violating aggregator
      // would break termination, so catch it in debug builds.
      assert(cfg_.aggregator->partial_cmp(cur_dep, merged) == PartialOrder::kLess);
      // Payload rewrite only; the key columns stay, so order holds.
      std::copy(merged.begin(), merged.end(), cur_dep.begin());
      ++res.updated;
      return true;
    };
    if (res.staged * kPerKeyRatio < full_.size()) {
      // A run small against the tree: one descent per key beats a rebuild.
      for (std::size_t off = 0; off < run.size(); off += ar) {
        const std::span<const value_t> in = run.subspan(off, ar);
        const std::span<value_t> cur =
            aggregated() ? full_.find_key(in.first(ka)) : std::span<value_t>{};
        if (cur.empty()) {
          if (full_.insert(in)) fresh.insert(fresh.end(), in.begin(), in.end());
        } else if (fold(cur, in)) {
          fresh.insert(fresh.end(), cur.begin(), cur.end());
        }
      }
    } else {
      full_.merge_sorted(run, fresh, fold);
    }
    delta_.assign_sorted(fresh);
    res.delta_size = delta_.size();
    res.inserted = res.delta_size - res.updated;
    res.rejected = res.staged - res.delta_size;
  }
  staging_.clear();
  return res;
}

void Relation::reset() {
  full_.clear();
  delta_.clear();
  staging_.clear();
  support_.clear();
  hot_keys_.clear();
  hot_set_.clear();
}

Relation::LocalSnapshot Relation::snapshot() const {
  assert(staging_.empty() && "snapshot is only legal between iterations");
  LocalSnapshot s;
  s.full.reserve(full_.size() * cfg_.arity);
  full_.for_each([&](std::span<const value_t> row) {
    s.full.insert(s.full.end(), row.begin(), row.end());
  });
  s.delta.reserve(delta_.size() * cfg_.arity);
  delta_.for_each([&](std::span<const value_t> row) {
    s.delta.insert(s.delta.end(), row.begin(), row.end());
  });
  s.support.assign(support_.begin(), support_.end());
  return s;
}

void Relation::restore(const LocalSnapshot& snap) {
  full_.assign_sorted(snap.full);  // snapshot rows are in key order
  delta_.assign_sorted(snap.delta);
  staging_.clear();
  support_.clear();
  support_.reserve(snap.support.size());
  for (const auto& [key, count] : snap.support) support_.emplace(key, count);
}

std::uint64_t Relation::support_of(std::span<const value_t> key) const {
  assert(key.size() == indep_arity());
  const auto it = support_.find(Tuple(key));
  return it == support_.end() ? 0 : it->second;
}

std::uint64_t Relation::support_release(std::span<const value_t> key, std::uint64_t n) {
  assert(key.size() == indep_arity());
  const auto it = support_.find(Tuple(key));
  if (it == support_.end()) return 0;
  it->second = it->second > n ? it->second - n : 0;
  return it->second;
}

Tuple Relation::retract_key(std::span<const value_t> key) {
  assert(key.size() == indep_arity());
  Tuple removed;
  const auto stored = std::as_const(full_).find_key(key);
  if (stored.empty()) return removed;
  removed = Tuple(stored);
  full_.erase_key(key);
  delta_.erase_key(key);  // a same-batch re-derivation may have put it there
  support_.erase(Tuple(key));
  return removed;
}

void Relation::load_facts(std::span<const Tuple> slice) {
  const auto n = static_cast<std::size_t>(comm_->size());
  std::vector<std::vector<value_t>> outgoing(n);
  for (const auto& t : slice) {
    assert(t.size() == cfg_.arity);
    auto& rows = outgoing[static_cast<std::size_t>(route_rank(t.view()))];
    rows.insert(rows.end(), t.view().begin(), t.view().end());
  }
  // Key-sorted rows are what make a frame small (DESIGN.md §6.2); sorting
  // whole rows would shrink RMAT edges another 10% for twice the sort.
  // Duplicates stay: every loaded row is one support event at its owner.
  for (std::size_t d = 0; d < n; ++d) {
    if (d != static_cast<std::size_t>(comm_->rank())) {
      storage::sort_rows(outgoing[d], cfg_.arity, cfg_.jcc);
    }
  }
  stage_rows(vmpi::exchange_rows(*comm_, cfg_.arity, std::move(outgoing),
                                 /*faultable=*/false));
  materialize();
}

std::uint64_t Relation::global_size(Version v) {
  return comm_->allreduce<std::uint64_t>(local_size(v), vmpi::ReduceOp::kSum);
}

std::vector<std::vector<value_t>> Relation::gather_rows(int root) const {
  std::vector<value_t> mine;
  mine.reserve(full_.size() * cfg_.arity);
  full_.for_each(
      [&](std::span<const value_t> t) { mine.insert(mine.end(), t.begin(), t.end()); });
  // The root's own scan skips the codec, as in vmpi::exchange_rows.
  const bool at_root = comm_->rank() == root;
  const auto frames =
      comm_->gatherv(root, at_root ? vmpi::Bytes{} : vmpi::encode_rows(cfg_.arity, mine));
  std::vector<std::vector<value_t>> rows(frames.size());
  for (std::size_t s = 0; s < frames.size(); ++s) {
    if (s == static_cast<std::size_t>(root)) {
      rows[s] = std::move(mine);
    } else {
      vmpi::decode_rows(frames[s], cfg_.arity, rows[s]);
    }
  }
  return rows;
}

std::vector<Tuple> Relation::gather_to_root(int root) {
  const auto parts = gather_rows(root);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size() / cfg_.arity;
  std::vector<Tuple> out;
  out.reserve(total);
  for (const auto& part : parts) {
    for (std::size_t off = 0; off < part.size(); off += cfg_.arity) {
      out.emplace_back(std::span<const value_t>(part).subspan(off, cfg_.arity));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Relation::reshuffle_to_sub_buckets(int new_sub_buckets,
                                                 std::uint64_t* cross_bytes) {
  assert(new_sub_buckets >= 1);
  if (cross_bytes != nullptr) *cross_bytes = 0;
  if (effective_sub_cols() == 0) new_sub_buckets = 1;
  const int old_sub = sub_buckets_;
  sub_buckets_ = new_sub_buckets;
  if (old_sub == new_sub_buckets) return 0;

  const auto n = static_cast<std::size_t>(comm_->size());
  const auto me = comm_->rank();
  const auto& topo = comm_->topology();
  std::uint64_t moved_bytes = 0;

  // Re-route both versions under the new mapping.  Delta must survive a
  // mid-fixpoint rebalance, so it travels tagged separately from full.
  for (const Version v : {Version::kFull, Version::kDelta}) {
    std::vector<std::vector<value_t>> outgoing(n);
    // route_rank, not owner_rank: hot rows keep their H2 spread placement
    // (independent of sub_buckets_), so a rebalance never disturbs them.
    tree(v).for_each([&](std::span<const value_t> t) {
      auto& rows = outgoing[static_cast<std::size_t>(route_rank(t))];
      rows.insert(rows.end(), t.begin(), t.end());
    });
    // The balancer prices moves in raw row bytes (plan_fanout projects in
    // the same unit); CommStats counts the frames.
    for (std::size_t d = 0; d < n; ++d) {
      if (d == static_cast<std::size_t>(me)) continue;
      const std::uint64_t bytes = outgoing[d].size() * sizeof(value_t);
      moved_bytes += bytes;
      if (cross_bytes != nullptr && !topo.same_node(me, static_cast<int>(d))) {
        *cross_bytes += bytes;
      }
    }
    auto rows = vmpi::exchange_rows(*comm_, cfg_.arity, std::move(outgoing),
                                    /*faultable=*/false);
    // Every key lives on exactly one rank, so the merged rows are key-unique.
    storage::sort_rows(rows, cfg_.arity, indep_arity());
    tree(v).assign_sorted(rows);
  }
  return moved_bytes;
}

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x50415241'4c414747ULL;  // "PARALAGG"
constexpr std::uint64_t kCheckpointVersion = 2;
// Header: magic, version, arity, row count, CRC-32 of the row bytes.
constexpr std::size_t kCheckpointHeaderWords = 5;

}  // namespace

void Relation::save_checkpoint(const std::string& path) {
  const auto parts = gather_rows(0);
  if (comm_->rank() == 0) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("checkpoint: cannot open for writing: " + path);
    std::uint64_t count = 0;
    std::uint32_t crc_state = vmpi::kCrc32Init;
    for (const auto& part : parts) {
      count += part.size() / cfg_.arity;
      crc_state = vmpi::crc32_update(crc_state, std::as_bytes(std::span(part)));
    }
    const std::uint64_t header[kCheckpointHeaderWords] = {
        kCheckpointMagic, kCheckpointVersion, cfg_.arity, count,
        crc_state ^ vmpi::kCrc32Init};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    for (const auto& part : parts) {
      out.write(reinterpret_cast<const char*>(part.data()),
                static_cast<std::streamsize>(part.size() * sizeof(value_t)));
    }
    if (!out) throw std::runtime_error("checkpoint: write failed: " + path);
  }
  comm_->barrier();  // nobody returns before the file exists
}

void Relation::load_checkpoint(const std::string& path) {
  // Rank 0 parses and validates the whole file — magic, version, arity,
  // declared count against the actual file size (so a corrupt count can
  // never drive a huge reserve), and the row-byte CRC — before any rank
  // touches its trees.  On any failure every rank throws and the relation
  // is left exactly as it was.
  std::vector<Tuple> rows;
  bool failed = false;
  std::string error;
  if (comm_->rank() == 0) {
    const auto fail = [&](std::string msg) {
      failed = true;
      error = std::move(msg);
    };
    std::ifstream in(path, std::ios::binary);
    std::uint64_t header[kCheckpointHeaderWords] = {};
    if (!in || !in.read(reinterpret_cast<char*>(header), sizeof(header))) {
      fail("checkpoint: cannot read " + path);
    } else if (header[0] != kCheckpointMagic) {
      fail("checkpoint: bad magic in " + path);
    } else if (header[1] != kCheckpointVersion) {
      fail("checkpoint: unsupported version " + std::to_string(header[1]) + " in " + path);
    } else if (header[2] != cfg_.arity) {
      fail("checkpoint: arity mismatch in " + path + " (file " +
           std::to_string(header[2]) + ", relation " + std::to_string(cfg_.arity) + ")");
    } else {
      const std::uint64_t count = header[3];
      const std::uint64_t row_bytes = count * cfg_.arity * sizeof(value_t);
      in.seekg(0, std::ios::end);
      const auto end = in.tellg();
      in.seekg(static_cast<std::streamoff>(sizeof(header)), std::ios::beg);
      if (end < 0 ||
          static_cast<std::uint64_t>(end) != sizeof(header) + row_bytes) {
        fail("checkpoint: file size disagrees with declared row count in " + path);
      } else {
        std::vector<std::byte> body(row_bytes);
        if (row_bytes > 0 &&
            !in.read(reinterpret_cast<char*>(body.data()),
                     static_cast<std::streamsize>(row_bytes))) {
          fail("checkpoint: truncated file " + path);
        } else if (vmpi::crc32(body) != static_cast<std::uint32_t>(header[4])) {
          fail("checkpoint: row data CRC mismatch in " + path);
        } else {
          rows.reserve(count);
          vmpi::TypedReader<value_t> r(body);
          while (!r.done()) rows.emplace_back(r.take_span(cfg_.arity));
        }
      }
    }
  }
  // All ranks must agree on failure before anyone throws, or the others
  // would hang in the scatter.
  if (comm_->allreduce<std::uint8_t>(failed ? 1 : 0, vmpi::ReduceOp::kLor) != 0) {
    throw std::runtime_error(comm_->rank() == 0 ? error : "checkpoint: load failed");
  }

  reset();
  load_facts(rows);  // rank 0 contributes everything; others pass empty
}

}  // namespace paralagg::core
