// Virtual MPI substrate: collectives, point-to-point, abort propagation,
// byte accounting.

#include "vmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>

namespace paralagg::vmpi {
namespace {

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> visits{0};
  std::array<std::atomic<bool>, 8> seen{};
  run(8, [&](Comm& comm) {
    ++visits;
    seen[static_cast<std::size_t>(comm.rank())] = true;
    EXPECT_EQ(comm.size(), 8);
  });
  EXPECT_EQ(visits.load(), 8);
  for (const auto& s : seen) EXPECT_TRUE(s.load());
}

TEST(Runtime, SingleRankWorld) {
  run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.allreduce<int>(5, ReduceOp::kSum), 5);
    comm.barrier();
  });
}

TEST(Runtime, RejectsNonPositiveRankCount) {
  EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(Runtime, PropagatesRankException) {
  EXPECT_THROW(run(4,
                   [&](Comm& comm) {
                     if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
                     // Other ranks block; abort must release them.
                     comm.barrier();
                     comm.barrier();
                   }),
               std::runtime_error);
}

TEST(Runtime, AbortReleasesBlockedRecv) {
  EXPECT_THROW(run(2,
                   [&](Comm& comm) {
                     if (comm.rank() == 0) throw std::runtime_error("boom");
                     (void)comm.recv(0, 1);  // would block forever without abort
                   }),
               std::runtime_error);
}

TEST(Allreduce, SumMinMax) {
  run(7, [&](Comm& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce<int>(r, ReduceOp::kSum), 21);
    EXPECT_EQ(comm.allreduce<int>(r, ReduceOp::kMin), 0);
    EXPECT_EQ(comm.allreduce<int>(r, ReduceOp::kMax), 6);
  });
}

TEST(Allreduce, LogicalOps) {
  run(4, [&](Comm& comm) {
    const std::uint8_t mine = comm.rank() == 2 ? 0 : 1;
    EXPECT_EQ(comm.allreduce<std::uint8_t>(mine, ReduceOp::kLand), 0);
    EXPECT_EQ(comm.allreduce<std::uint8_t>(mine, ReduceOp::kLor), 1);
  });
}

TEST(Allreduce, RepeatedCallsDoNotInterfere) {
  run(5, [&](Comm& comm) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(comm.allreduce<int>(comm.rank() + i, ReduceOp::kSum),
                10 + 5 * i);
    }
  });
}

TEST(Allgather, CollectsInRankOrder) {
  run(6, [&](Comm& comm) {
    const auto all = comm.allgather<std::uint64_t>(comm.rank() * 11u);
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 11u);
  });
}

TEST(Bcast, ValueReachesAllRanks) {
  run(5, [&](Comm& comm) {
    const std::uint64_t v = comm.rank() == 3 ? 777 : 0;
    EXPECT_EQ(comm.bcast_value<std::uint64_t>(3, v), 777u);
  });
}

TEST(Bcast, BufferReachesAllRanks) {
  run(3, [&](Comm& comm) {
    Bytes data;
    if (comm.rank() == 0) {
      BufferWriter w;
      for (std::uint64_t i = 0; i < 100; ++i) w.put(i);
      data = w.take();
    }
    auto out = comm.bcast(0, data);
    BufferReader r(out);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(r.get<std::uint64_t>(), i);
    EXPECT_TRUE(r.done());
  });
}

TEST(Gatherv, RootSeesAllBuffers) {
  run(4, [&](Comm& comm) {
    BufferWriter w;
    w.put<std::uint64_t>(comm.rank() * 2u);
    const auto mine = w.take();
    auto all = comm.gatherv(1, mine);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        BufferReader rd(all[static_cast<std::size_t>(r)]);
        EXPECT_EQ(rd.get<std::uint64_t>(), r * 2u);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Alltoallv, PersonalizedExchange) {
  run(4, [&](Comm& comm) {
    const int n = comm.size();
    // Rank r sends value r*10+d to rank d.
    std::vector<std::vector<std::uint64_t>> send(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      send[static_cast<std::size_t>(d)].push_back(
          static_cast<std::uint64_t>(comm.rank() * 10 + d));
    }
    auto got = comm.alltoallv_t(send);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(got[static_cast<std::size_t>(s)][0],
                static_cast<std::uint64_t>(s * 10 + comm.rank()));
    }
  });
}

TEST(Alltoallv, EmptyAndAsymmetricBuffers) {
  run(3, [&](Comm& comm) {
    std::vector<std::vector<std::uint32_t>> send(3);
    // Only rank 0 sends, and only to rank 2.
    if (comm.rank() == 0) send[2] = {1, 2, 3};
    auto got = comm.alltoallv_t(send);
    std::size_t total = 0;
    for (const auto& b : got) total += b.size();
    EXPECT_EQ(total, comm.rank() == 2 ? 3u : 0u);
  });
}

TEST(PointToPoint, SendRecvByTag) {
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      BufferWriter w;
      w.put<std::uint64_t>(111);
      const auto first = w.take();
      BufferWriter w2;
      w2.put<std::uint64_t>(222);
      const auto second = w2.take();
      comm.isend(1, /*tag=*/7, first);
      comm.isend(1, /*tag=*/9, second);
    } else {
      // Receive out of order by tag.
      auto nine = comm.recv(0, 9);
      auto seven = comm.recv(0, 7);
      EXPECT_EQ(BufferReader(nine).get<std::uint64_t>(), 222u);
      EXPECT_EQ(BufferReader(seven).get<std::uint64_t>(), 111u);
    }
  });
}

TEST(PointToPoint, WildcardSourceAndTag) {
  run(3, [&](Comm& comm) {
    if (comm.rank() != 0) {
      BufferWriter w;
      w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank()));
      comm.isend(0, comm.rank(), w.take());
    } else {
      std::uint64_t sum = 0;
      for (int i = 0; i < 2; ++i) {
        int src = -2, tag = -2;
        auto data = comm.recv(kAnySource, kAnyTag, &src, &tag);
        EXPECT_EQ(src, tag);  // we used rank as tag
        sum += BufferReader(data).get<std::uint64_t>();
      }
      EXPECT_EQ(sum, 3u);
    }
    comm.barrier();
  });
}

TEST(PointToPoint, IprobeSeesPendingMessage) {
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      BufferWriter w;
      w.put<int>(1);
      comm.isend(1, 5, w.take());
      comm.barrier();
    } else {
      comm.barrier();  // ensure the send happened
      EXPECT_TRUE(comm.iprobe(0, 5));
      EXPECT_TRUE(comm.iprobe(kAnySource, kAnyTag));
      EXPECT_FALSE(comm.iprobe(0, 6));
      (void)comm.recv(0, 5);
      EXPECT_FALSE(comm.iprobe(0, 5));
    }
  });
}

TEST(PointToPoint, WildcardMatchingIsFifoPerPattern) {
  // Among queued messages matching a wildcard pattern, the earliest
  // enqueued must be delivered first — the async engine's drain loop
  // depends on arrival order being preserved per tag.
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint64_t i = 0; i < 4; ++i) {
        BufferWriter w;
        w.put(i);
        // Alternate tags; wildcard receives must still see 0,1,2,3.
        comm.isend(1, /*tag=*/static_cast<int>(10 + i % 2), w.take());
      }
      comm.barrier();
    } else {
      comm.barrier();  // all four messages are queued now
      for (std::uint64_t i = 0; i < 4; ++i) {
        int tag = -2;
        auto data = comm.recv(kAnySource, kAnyTag, nullptr, &tag);
        EXPECT_EQ(BufferReader(data).get<std::uint64_t>(), i);
        EXPECT_EQ(tag, static_cast<int>(10 + i % 2));
      }
    }
    comm.barrier();
    // Second wave: tag-filtered wildcard-source receive skips non-matching
    // messages but stays FIFO within the tag.
    if (comm.rank() == 0) {
      for (std::uint64_t i = 0; i < 4; ++i) {
        BufferWriter w;
        w.put(i);
        comm.isend(1, static_cast<int>(20 + i % 2), w.take());
      }
      comm.barrier();
    } else {
      comm.barrier();
      int src = -2;
      auto a = comm.recv(kAnySource, 21, &src);  // second-enqueued message
      EXPECT_EQ(BufferReader(a).get<std::uint64_t>(), 1u);
      EXPECT_EQ(src, 0);
      auto b = comm.recv(kAnySource, 21);
      EXPECT_EQ(BufferReader(b).get<std::uint64_t>(), 3u);
      auto c = comm.recv(kAnySource, 20);
      EXPECT_EQ(BufferReader(c).get<std::uint64_t>(), 0u);
      auto d = comm.recv(kAnySource, 20);
      EXPECT_EQ(BufferReader(d).get<std::uint64_t>(), 2u);
    }
  });
}

TEST(PointToPoint, DrainDeliversAllQueuedForTag) {
  run(3, [&](Comm& comm) {
    if (comm.rank() != 0) {
      for (int i = 0; i < 3; ++i) {
        BufferWriter w;
        w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank() * 10 + i));
        comm.isend(0, /*tag=*/5, w.take());
      }
      BufferWriter other;
      other.put<std::uint64_t>(999);
      comm.isend(0, /*tag=*/6, other.take());
      comm.barrier();
    } else {
      comm.barrier();  // 6 tag-5 messages and 2 tag-6 messages queued
      std::vector<std::uint64_t> got;
      std::vector<int> sources;
      const auto n = comm.drain(5, [&](int src, Bytes payload) {
        sources.push_back(src);
        got.push_back(BufferReader(payload).get<std::uint64_t>());
      });
      EXPECT_EQ(n, 6u);
      EXPECT_EQ(got.size(), 6u);
      // Per-source arrival order is preserved.
      std::uint64_t prev1 = 0, prev2 = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        auto& prev = sources[i] == 1 ? prev1 : prev2;
        EXPECT_GE(got[i], prev);
        prev = got[i];
      }
      // The tag-6 messages are untouched.
      EXPECT_EQ(comm.drain(5, [](int, Bytes) {}), 0u);
      std::size_t sixes = comm.drain(6, [](int, Bytes) {});
      EXPECT_EQ(sixes, 2u);
    }
    comm.barrier();
  });
}

TEST(Stats, P2PMessageAndByteCountersMatchTraffic) {
  std::vector<CommStats> per_rank;
  run_collect(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          BufferWriter w;
          for (int i = 0; i < 4; ++i) w.put<std::uint64_t>(1);
          comm.isend(1, 3, w.take());  // 32 bytes
          BufferWriter w2;
          w2.put<std::uint64_t>(2);
          comm.isend(1, 3, w2.take());  // 8 bytes
          comm.barrier();
        } else {
          (void)comm.recv(0, 3);
          (void)comm.recv(0, 3);
          comm.barrier();
        }
      },
      per_rank);
  EXPECT_EQ(per_rank[0].messages_sent, 2u);
  EXPECT_EQ(per_rank[0].messages_received, 0u);
  EXPECT_EQ(per_rank[1].messages_received, 2u);
  EXPECT_EQ(per_rank[1].p2p_bytes_received, 40u);
}

TEST(Stats, WaitSecondsAccumulatesOnBlockedRecv) {
  std::vector<CommStats> per_rank;
  run_collect(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          // Make rank 1 block in recv for a measurable moment.
          const auto t0 = std::chrono::steady_clock::now();
          while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(20)) {
          }
          BufferWriter w;
          w.put<std::uint64_t>(7);
          comm.isend(1, 2, w.take());
        } else {
          (void)comm.recv(0, 2);
        }
      },
      per_rank);
  EXPECT_GT(per_rank[1].wait_seconds, 0.0);
}

TEST(Stats, AlltoallvCountsRemoteVsLocalBytes) {
  std::vector<CommStats> per_rank;
  run_collect(
      4,
      [&](Comm& comm) {
        std::vector<std::vector<std::uint64_t>> send(4);
        for (int d = 0; d < 4; ++d) send[static_cast<std::size_t>(d)] = {1, 2};
        (void)comm.alltoallv_t(send);
      },
      per_rank);
  for (const auto& st : per_rank) {
    // 2 values * 8 bytes to each of 3 remote ranks; 16 bytes to self.
    EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), 3u * 16u);
    EXPECT_EQ(st.bytes_local[static_cast<std::size_t>(Op::kAlltoallv)], 16u);
  }
}

TEST(Stats, AllreduceVoteCostsOneIntegerPerRank) {
  // The paper stresses that the join-planning vote moves a single small
  // integer; verify the accounting shows exactly that.
  std::vector<CommStats> per_rank;
  run_collect(
      8, [&](Comm& comm) { (void)comm.allreduce<std::uint32_t>(1, ReduceOp::kSum); },
      per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.remote_bytes(Op::kAllreduce), sizeof(std::uint32_t) * 7);
  }
}

TEST(Stats, PerKindCountersSplitIntraVsCrossNodeBytes) {
  // Under a grouped topology every collective kind carries its own
  // locality split: 4 ranks on 2 nodes of 2 means each rank's n-1 remote
  // blocks divide into 1 on-node peer and 2 off-node peers, per kind.
  RunOptions options;
  options.topology = Topology::grouped(4, 2);
  std::vector<CommStats> per_rank;
  run_collect(
      4, options,
      [&](Comm& comm) {
        (void)comm.allreduce<std::uint64_t>(1, ReduceOp::kSum);
        (void)comm.allgather<std::uint64_t>(2);
        std::vector<std::vector<std::uint64_t>> send(4);
        for (auto& s : send) s = {1, 2, 3};
        (void)comm.alltoallv_t(send);
      },
      per_rank);
  for (const auto& st : per_rank) {
    for (const Op op : {Op::kAllreduce, Op::kAllgather}) {
      EXPECT_EQ(st.remote_bytes(op), 24u);
      EXPECT_EQ(st.intra_node_bytes(op), 8u);
      EXPECT_EQ(st.cross_node_bytes(op), 16u);
    }
    EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), 72u);
    EXPECT_EQ(st.intra_node_bytes(Op::kAlltoallv), 24u);
    EXPECT_EQ(st.cross_node_bytes(Op::kAlltoallv), 48u);
    // Per-kind splits are exhaustive: intra + cross == remote, and the
    // world totals are the per-kind sums.
    std::uint64_t cross = 0;
    for (const Op op : {Op::kAllreduce, Op::kAllgather, Op::kAlltoallv}) {
      EXPECT_EQ(st.intra_node_bytes(op) + st.cross_node_bytes(op), st.remote_bytes(op));
      cross += st.cross_node_bytes(op);
    }
    EXPECT_EQ(st.total_cross_node_bytes(), cross);
  }
}

TEST(Stats, PauseSuppressesAccounting) {
  std::vector<CommStats> per_rank;
  run_collect(
      2,
      [&](Comm& comm) {
        {
          StatsPause pause(comm);
          (void)comm.allreduce<std::uint64_t>(1, ReduceOp::kSum);
        }
        EXPECT_TRUE(comm.stats_enabled());
      },
      per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.total_remote_bytes(), 0u);
  }
}

TEST(Stats, TotalsAggregateAcrossRanks) {
  const auto total = run(3, [&](Comm& comm) {
    (void)comm.allgather<std::uint64_t>(1);
  });
  EXPECT_EQ(total.remote_bytes(Op::kAllgather), 3u * 2u * sizeof(std::uint64_t));
  EXPECT_EQ(total.calls[static_cast<std::size_t>(Op::kAllgather)], 3u);
}

TEST(Serialize, RoundTripMixedTypes) {
  BufferWriter w;
  w.put<std::uint64_t>(42);
  w.put<double>(2.5);
  const std::uint32_t arr[] = {7, 8, 9};
  w.put_span(std::span<const std::uint32_t>(arr, 3));
  const auto bytes = w.take();

  BufferReader r(bytes);
  EXPECT_EQ(r.get<std::uint64_t>(), 42u);
  EXPECT_EQ(r.get<double>(), 2.5);
  std::uint32_t out[3];
  r.get_into(std::span<std::uint32_t>(out, 3));
  EXPECT_EQ(out[2], 9u);
  EXPECT_TRUE(r.done());
}

TEST(Bruck, LogarithmicMessageCount) {
  std::vector<CommStats> per_rank;
  run_collect(
      16,
      [&](Comm& comm) {
        std::vector<Bytes> send(16);
        for (auto& b : send) {
          BufferWriter w;
          w.put<std::uint64_t>(1);
          b = w.take();
        }
        (void)comm.alltoallv_bruck(std::move(send));
      },
      per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.messages_sent, 4u);  // log2(16) rounds, one message each
  }
}

TEST(Bruck, BackToBackCallsDoNotCrossMatch) {
  run(4, [&](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<Bytes> send(4);
      BufferWriter w;
      w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank() * 100 + round));
      send[static_cast<std::size_t>((comm.rank() + 1) % 4)] = w.take();
      const auto got = comm.alltoallv_bruck(std::move(send));
      const int src = (comm.rank() + 3) % 4;
      BufferReader r(got[static_cast<std::size_t>(src)]);
      EXPECT_EQ(r.get<std::uint64_t>(), static_cast<std::uint64_t>(src * 100 + round));
    }
  });
}

/// Rank `src`'s buffer for rank `dst`: 0-3 words, so some are empty.
Bytes exchange_payload(int src, int dst) {
  BufferWriter w;
  for (int i = 0; i < (src + dst) % 4; ++i) {
    w.put<std::uint64_t>(static_cast<std::uint64_t>(src * 1000 + dst * 10 + i));
  }
  return w.take();
}

TEST(Alltoallv, EveryExchangeDeliversTheExpectedBuffers) {
  // Both alltoallv entry points and the Bruck relay, at every rank count
  // from 1 to 13 (powers of two and not).
  for (int ranks = 1; ranks <= 13; ++ranks) {
    run(ranks, [&](Comm& comm) {
      const int n = comm.size();
      for (int way = 0; way < 3; ++way) {
        std::vector<Bytes> send;
        for (int d = 0; d < n; ++d) send.push_back(exchange_payload(comm.rank(), d));
        const auto got = way == 0   ? comm.alltoallv(std::move(send))
                         : way == 1 ? comm.alltoallv_mailbox(std::move(send))
                                    : comm.alltoallv_bruck(std::move(send));
        ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
        for (int s = 0; s < n; ++s) {
          EXPECT_EQ(got[static_cast<std::size_t>(s)], exchange_payload(s, comm.rank()))
              << "ranks=" << ranks << " way=" << way << " from=" << s;
        }
      }
    });
  }
}

TEST(MailboxAlltoallv, BackToBackCallsUnderDupAndDelayReturnOnlyTheirOwnWave) {
  // Duplicated and held-back frames let a fast rank's next wave land in a
  // peer's mailbox while that peer still drains the current one: only the
  // per-call tag keeps the waves apart.
  RunOptions options;
  options.fault.seed = 17;
  options.fault.dup_prob = 0.25;
  options.fault.delay_prob = 0.25;
  options.fault.max_delay_msgs = 3;
  options.watchdog_seconds = 10.0;
  constexpr std::uint64_t kWaves = 8;
  const auto total = run(4, options, [&](Comm& comm) {
    const auto n = static_cast<std::size_t>(comm.size());
    for (std::uint64_t wave = 1; wave <= kWaves; ++wave) {
      std::vector<Bytes> send(n);
      for (std::size_t d = 0; d < n; ++d) {
        BufferWriter w;
        w.put<std::uint64_t>(wave * 1000 + static_cast<std::uint64_t>(comm.rank()));
        send[d] = w.take();
      }
      const auto got = comm.alltoallv_mailbox(std::move(send));
      ASSERT_EQ(got.size(), n);
      for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(BufferReader(got[s]).get<std::uint64_t>(), wave * 1000 + s)
            << "wave " << wave << " from " << s;
      }
    }
  });
  EXPECT_GT(total.faults_duplicated, 0u);
  EXPECT_GT(total.faults_delayed, 0u);
}

TEST(MailboxAlltoallv, StatsAttributeToAlltoallvNotP2P) {
  std::vector<CommStats> per_rank;
  run_collect(
      4,
      [&](Comm& comm) {
        std::vector<Bytes> send(4);
        for (int d = 0; d < 4; ++d) {
          BufferWriter w;
          w.put<std::uint64_t>(1);
          w.put<std::uint64_t>(2);
          send[static_cast<std::size_t>(d)] = w.take();
        }
        (void)comm.alltoallv_mailbox(std::move(send));
      },
      per_rank);
  for (const auto& st : per_rank) {
    // Same attribution as the plain alltoallv: 16 bytes to each of 3
    // remote ranks, 16 to self, one call, one step — and none of it
    // double-counted as p2p.
    EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), 3u * 16u);
    EXPECT_EQ(st.bytes_local[static_cast<std::size_t>(Op::kAlltoallv)], 16u);
    EXPECT_EQ(st.calls_of(Op::kAlltoallv), 1u);
    EXPECT_EQ(st.steps_of(Op::kAlltoallv), 1u);
    EXPECT_EQ(st.remote_bytes(Op::kP2P), 0u);
    EXPECT_EQ(st.messages_sent, 0u);
    EXPECT_EQ(st.messages_received, 0u);
  }
}

TEST(MailboxAlltoallv, AllEmptySendsCompleteWithoutTraffic) {
  for (const int ranks : {1, 2, 5}) {
    run(ranks, [&](Comm& comm) {
      std::vector<Bytes> send(static_cast<std::size_t>(comm.size()));
      const auto got = comm.alltoallv_mailbox(std::move(send));
      ASSERT_EQ(got.size(), static_cast<std::size_t>(comm.size()));
      for (const auto& b : got) EXPECT_TRUE(b.empty());
    });
  }
}

/// Rank `src`'s word for rank `dst` in `wave`, as a one-word buffer.
Bytes wave_word(std::uint64_t wave, int src, int dst) {
  BufferWriter w;
  w.put<std::uint64_t>(wave * 1000000 + static_cast<std::uint64_t>(src * 1000 + dst));
  return w.take();
}

TEST(ManyRanks, CollectivesScaleTo64Threads) {
  run(64, [&](Comm& comm) {
    const int me = comm.rank();
    EXPECT_EQ(comm.allreduce<std::uint64_t>(1, ReduceOp::kSum), 64u);
    std::vector<Bytes> send;
    for (int d = 0; d < 64; ++d) send.push_back(wave_word(0, me, d));
    const auto got = comm.alltoallv(std::move(send));
    for (int s = 0; s < 64; ++s) EXPECT_EQ(got[static_cast<std::size_t>(s)], wave_word(0, s, me));
    EXPECT_EQ(comm.bcast(63, me == 63 ? wave_word(1, 63, 0) : Bytes{}), wave_word(1, 63, 0));
    const auto all = comm.gatherv(5, wave_word(2, me, 5));
    ASSERT_EQ(all.size(), me == 5 ? 64u : 0u);
    for (std::size_t s = 0; s < all.size(); ++s) {
      EXPECT_EQ(all[s], wave_word(2, static_cast<int>(s), 5));
    }
    comm.barrier();
  });
}

/// One wave of every mailbox collective, back to back with no fence: a
/// bcast from a rotating root, a gatherv to the next root, both alltoallv
/// entry points and an allreduce.  Each call must return this wave's
/// words only and record one call of its own Op with the remote bytes,
/// local bytes and steps given, and no other traffic.
void interleaved_wave(Comm& comm, std::uint64_t wave) {
  const int n = comm.size();
  const int me = comm.rank();
  const auto peers = 8 * static_cast<std::uint64_t>(n - 1);
  const auto counted = [&](Op op, std::uint64_t remote, std::uint64_t local,
                           std::uint64_t steps, const std::function<void()>& call) {
    const CommStats before = comm.stats();
    call();
    const CommStats& st = comm.stats();
    const auto i = static_cast<std::size_t>(op);
    EXPECT_EQ(st.calls[i] - before.calls[i], 1u) << op_name(op) << " wave " << wave;
    EXPECT_EQ(st.total_remote_bytes() - before.total_remote_bytes(), remote) << op_name(op);
    EXPECT_EQ(st.bytes_sent[i] - before.bytes_sent[i], remote) << op_name(op);
    EXPECT_EQ(st.bytes_local[i] - before.bytes_local[i], local) << op_name(op);
    EXPECT_EQ(st.total_steps() - before.total_steps(), steps) << op_name(op);
    EXPECT_EQ(st.messages_sent + st.messages_received,
              before.messages_sent + before.messages_received) << op_name(op);
  };
  const int root = static_cast<int>(wave % static_cast<std::uint64_t>(n));
  counted(Op::kBcast, me == root ? peers : 0, 0, 0, [&] {
    const auto mine = me == root ? wave_word(wave, root, root) : Bytes{};
    EXPECT_EQ(comm.bcast(root, mine), wave_word(wave, root, root));
  });
  const int groot = (root + 1) % n;
  counted(Op::kGather, me == groot ? 0 : 8, me == groot ? 8 : 0, 0, [&] {
    const auto all = comm.gatherv(groot, wave_word(wave, me, groot));
    ASSERT_EQ(all.size(), me == groot ? static_cast<std::size_t>(n) : 0u);
    for (std::size_t s = 0; s < all.size(); ++s) {
      EXPECT_EQ(all[s], wave_word(wave, static_cast<int>(s), groot));
    }
  });
  for (const bool faultable : {false, true}) {
    counted(Op::kAlltoallv, peers, 8, 1, [&] {
      std::vector<Bytes> send;
      for (int d = 0; d < n; ++d) send.push_back(wave_word(wave, me, d));
      const auto got = faultable ? comm.alltoallv_mailbox(std::move(send))
                                 : comm.alltoallv(std::move(send));
      ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
      for (int s = 0; s < n; ++s) {
        EXPECT_EQ(got[static_cast<std::size_t>(s)], wave_word(wave, s, me));
      }
    });
  }
  std::uint64_t rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  counted(Op::kAllreduce, peers, 8, rounds, [&] {
    EXPECT_EQ(comm.allreduce<std::uint64_t>(wave + static_cast<std::uint64_t>(me),
                                            ReduceOp::kMax),
              wave + static_cast<std::uint64_t>(n - 1));
  });
}

TEST(Collectives, InterleavedWavesReturnOnlyTheirOwnWave) {
  for (const int ranks : {1, 3, 7}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    run(ranks, [&](Comm& comm) {
      for (std::uint64_t wave = 0; wave < 12; ++wave) interleaved_wave(comm, wave);
      // Strand traffic and desynchronise the tag streams the way a typed
      // abort does: rank 0 alone starts a bcast, then poisons the world.
      // The reset rendezvous purges the mailboxes and re-zeroes every
      // rank's tags, so the next waves pair up again.
      comm.barrier();
      if (comm.rank() == 0) {
        (void)comm.bcast(0, wave_word(99, 0, 0));
        comm.world().fault_abort();
      }
      ASSERT_TRUE(comm.fault_reset(10.0));
      for (std::uint64_t wave = 12; wave < 24; ++wave) interleaved_wave(comm, wave);
    });
  }
}

}  // namespace
}  // namespace paralagg::vmpi
