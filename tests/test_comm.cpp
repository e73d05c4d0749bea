#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "comm/world.h"
#include "telemetry/session.h"

namespace mmd::comm {
namespace {

TEST(World, RejectsZeroRanks) {
  EXPECT_THROW(World w(0), std::invalid_argument);
}

TEST(World, SingleRankRuns) {
  World w(1);
  int ran = 0;
  w.run([&](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    ran = 1;
  });
  EXPECT_EQ(ran, 1);
}

TEST(World, RankExceptionPropagates) {
  // A rank failure is rethrown on the caller after join. Ranks still running
  // may enter collectives the failed rank would have joined: the world
  // aborts them (RankFailureWakesBlockedRanks).
  World w(2);
  EXPECT_THROW(w.run([](Comm& c) {
    c.barrier();
    if (c.rank() == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

/// Runs `w` with rank `failing` throwing std::runtime_error("rank failed")
/// once every other rank is about to block (and a little after), and checks
/// that run() rethrows that very exception, promptly.
void expect_failure_wakes_blocked_ranks(World& w, int failing,
                                        const std::function<void(Comm&)>& block) {
  std::atomic<int> blocking{0};
  const auto t0 = std::chrono::steady_clock::now();
  try {
    w.run([&](Comm& c) {
      if (c.rank() != failing) {
        blocking.fetch_add(1);
        block(c);
        ADD_FAILURE() << "rank " << c.rank() << " returned from its wait";
        return;
      }
      while (blocking.load() < c.size() - 1) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("rank failed");
    });
    ADD_FAILURE() << "run() returned";
  } catch (const WorldAborted&) {
    ADD_FAILURE() << "run() rethrew the abort, not the failed rank's error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank failed");
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  // The aborted world is spent.
  EXPECT_THROW(w.run([](Comm&) {}), std::logic_error);
}

TEST(World, RankFailureWakesBlockedRanks) {
  // Rank 1 throws while rank 0 waits in a barrier, rank 2 in recv and rank 3
  // in wait_any: none of them can complete, and run() must still return
  // rank 1's error at once instead of hanging.
  World w(4);
  expect_failure_wakes_blocked_ranks(w, 1, [](Comm& c) {
    if (c.rank() == 0) {
      c.barrier();
    } else if (c.rank() == 2) {
      c.recv(1, 5);
    } else {
      Request rs[2] = {c.irecv(1, 6), c.irecv(0, 7)};
      c.wait_any(rs);
    }
  });
}

TEST(World, RankFailureWakesProbeWaitAndAllreduce) {
  World w(4);
  expect_failure_wakes_blocked_ranks(w, 3, [](Comm& c) {
    if (c.rank() == 0) {
      c.probe(3, 5);
    } else if (c.rank() == 1) {
      Request r = c.irecv(3, 6);
      c.wait(r);
    } else {
      c.allreduce_sum(1.0);
    }
  });
}

TEST(Comm, SendRecvTyped) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> xs{1.0, 2.0, 3.0};
      c.send(1, 7, std::span<const double>(xs));
    } else {
      auto xs = c.recv_vector<double>(0, 7);
      ASSERT_EQ(xs.size(), 3u);
      EXPECT_DOUBLE_EQ(xs[2], 3.0);
    }
  });
}

TEST(Comm, SelfSendWorks) {
  World w(1);
  w.run([](Comm& c) {
    c.send_value(0, 1, 42);
    auto v = c.recv_vector<int>(0, 1);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 42);
  });
}

TEST(Comm, TagAndSourceMatching) {
  World w(3);
  w.run([](Comm& c) {
    if (c.rank() != 2) {
      c.send_value(2, 10 + c.rank(), c.rank());
    } else {
      // Receive in reverse order of arrival possibility: tag selects.
      auto one = c.recv_vector<int>(kAnySource, 11);
      auto zero = c.recv_vector<int>(kAnySource, 10);
      EXPECT_EQ(one[0], 1);
      EXPECT_EQ(zero[0], 0);
    }
  });
}

TEST(Comm, ProbeReportsSizeWithoutConsuming) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::int64_t> xs(5, 9);
      c.send(1, 3, std::span<const std::int64_t>(xs));
    } else {
      const ProbeInfo info = c.probe(kAnySource, 3);
      EXPECT_EQ(info.src, 0);
      EXPECT_EQ(info.bytes, 5 * sizeof(std::int64_t));
      auto xs = c.recv_vector<std::int64_t>(info.src, info.tag);
      EXPECT_EQ(xs.size(), 5u);
    }
  });
}

TEST(Comm, IprobeNonBlocking) {
  World w(1);
  w.run([](Comm& c) {
    EXPECT_FALSE(c.iprobe().has_value());
    c.send_value(0, 1, 1);
    EXPECT_TRUE(c.iprobe(0, 1).has_value());
  });
}

TEST(Comm, ZeroSizeMessage) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 5, std::span<const int>{});
    } else {
      const ProbeInfo info = c.probe(0, 5);
      EXPECT_EQ(info.bytes, 0u);
      auto v = c.recv_vector<int>(0, 5);
      EXPECT_TRUE(v.empty());
    }
  });
}

class CommCollectives : public ::testing::TestWithParam<int> {};

TEST_P(CommCollectives, AllreduceSum) {
  const int n = GetParam();
  World w(n);
  w.run([&](Comm& c) {
    const double s = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(s, n * (n + 1) / 2.0);
  });
}

TEST_P(CommCollectives, AllreduceMax) {
  const int n = GetParam();
  World w(n);
  w.run([&](Comm& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_max(static_cast<double>(c.rank())), n - 1.0);
    EXPECT_EQ(c.allreduce_max_u64(static_cast<std::uint64_t>(c.rank()) * 3),
              static_cast<std::uint64_t>(n - 1) * 3);
  });
}

TEST_P(CommCollectives, RepeatedCollectivesDoNotInterleave) {
  // Back-to-back collectives of every kind with checked results. Every
  // 500th iteration one rank arrives a millisecond late, so the others run
  // through the spin and yield phases and park; a lost wake-up hangs here
  // (ctest's TIMEOUT turns that into a failure).
  const int n = GetParam();
  World w(n);
  std::atomic<int> wrong{0};
  w.run([&](Comm& c) {
    const int r = c.rank();
    for (int i = 0; i < 2000; ++i) {
      if (i % 500 == 499 && r == (i / 500) % n) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const auto iu = static_cast<std::uint64_t>(i);
      const auto nu = static_cast<std::uint64_t>(n);
      c.barrier();
      const double sum = c.allreduce_sum(static_cast<double>(r + i));
      const double max = c.allreduce_max(static_cast<double>(r + i));
      const std::uint64_t sum_u = c.allreduce_sum_u64(iu);
      const std::uint64_t max_u =
          c.allreduce_max_u64(static_cast<std::uint64_t>(r) * iu);
      if (sum != static_cast<double>(n * i + n * (n - 1) / 2) ||
          max != static_cast<double>(n - 1 + i) || sum_u != iu * nu ||
          max_u != (nu - 1) * iu) {
        wrong.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0);
}

TEST_P(CommCollectives, BarrierSynchronizes) {
  const int n = GetParam();
  World w(n);
  std::atomic<int> before{0};
  std::atomic<bool> ok{true};
  w.run([&](Comm& c) {
    before.fetch_add(1);
    c.barrier();
    if (before.load() != n) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

// 16 ranks oversubscribe a 4-core host four times over.
INSTANTIATE_TEST_SUITE_P(RankCounts, CommCollectives,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Comm, AllreduceSumFoldsInRankOrderWhateverTheArrivalOrder) {
  // Rank order and reverse order round these to different doubles; ranks
  // arrive in reverse order, and every rank must still get the rank-order
  // left fold, bit for bit.
  const std::vector<double> x{1e16, 1.0, -1e16, 1.0};
  const int n = static_cast<int>(x.size());
  double rank_order = x.front();
  for (std::size_t r = 1; r < x.size(); ++r) rank_order += x[r];
  double reverse_order = x.back();
  for (std::size_t r = x.size() - 1; r-- > 0;) reverse_order += x[r];
  ASSERT_NE(std::bit_cast<std::uint64_t>(rank_order),
            std::bit_cast<std::uint64_t>(reverse_order));

  World w(n);
  std::vector<std::uint64_t> got(x.size());
  w.run([&](Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    std::this_thread::sleep_for(std::chrono::milliseconds(30 * (n - 1 - c.rank())));
    got[r] = std::bit_cast<std::uint64_t>(c.allreduce_sum(x[r]));
  });
  for (const std::uint64_t bits : got) {
    EXPECT_EQ(bits, std::bit_cast<std::uint64_t>(rank_order));
  }
}

TEST(World, LongCollectiveWaitsParkAndAreCounted) {
  // Rank 0 arrives 50 ms after the others have started: ranks 1-3 outlast
  // the spin and yield phases and park; rank 0, the last arrival, never
  // waits.
  telemetry::Session session(4);
  World w(4);
  std::atomic<int> started{0};
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      while (started.load() < 3) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else {
      started.fetch_add(1);
    }
    c.barrier();
  });
  EXPECT_EQ(w.traffic(0).collectives_parked, 0u);
  for (int r = 1; r < 4; ++r) EXPECT_GE(w.traffic(r).collectives_parked, 1u);
  EXPECT_EQ(session.metrics().aggregate().counter("comm.collectives.parked"),
            w.total_traffic().collectives_parked);
}

TEST(Comm, WindowPutAndDrain) {
  World w(3);
  w.run([](Comm& c) {
    auto win = c.create_window();
    // Everyone deposits one record into rank (r+1)%3.
    const int target = (c.rank() + 1) % 3;
    const std::int64_t payload = 100 + c.rank();
    c.put(*win, target, std::span<const std::int64_t>(&payload, 1));
    c.barrier();
    auto got = c.drain<std::int64_t>(*win);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 100 + (c.rank() + 2) % 3);
  });
}

TEST(Comm, WindowEmptyDrain) {
  World w(2);
  w.run([](Comm& c) {
    auto win = c.create_window();
    c.barrier();
    EXPECT_TRUE(c.drain<int>(*win).empty());
  });
}

TEST(World, TrafficCounters) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<char> payload(100);
      c.send(1, 1, std::span<const char>(payload));
    } else {
      c.recv(0, 1);
    }
    c.barrier();
  });
  const RankTraffic total = w.total_traffic();
  EXPECT_EQ(total.p2p_msgs_sent, 1u);
  EXPECT_EQ(total.p2p_bytes_sent, 100u);
  EXPECT_EQ(w.traffic(0).p2p_bytes_sent, 100u);
  EXPECT_EQ(w.traffic(1).p2p_bytes_sent, 0u);
  EXPECT_EQ(total.collectives, 2u);
  w.reset_traffic();
  EXPECT_EQ(w.total_traffic().total_bytes(), 0u);
}

TEST(World, WindowTrafficCounted) {
  World w(2);
  w.run([](Comm& c) {
    auto win = c.create_window();
    if (c.rank() == 0) {
      const double x = 1.0;
      c.put(*win, 1, std::span<const double>(&x, 1));
    }
    c.barrier();
    c.drain<double>(*win);
  });
  EXPECT_EQ(w.total_traffic().onesided_puts, 1u);
  EXPECT_EQ(w.total_traffic().onesided_bytes, sizeof(double));
}

class CommGather : public ::testing::TestWithParam<int> {};

TEST_P(CommGather, GatherConcatenatesInRankOrder) {
  const int n = GetParam();
  World w(n);
  w.run([&](Comm& c) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> mine(static_cast<std::size_t>(c.rank() + 1), c.rank());
    auto all = c.gather_to<int>(0, mine);
    if (c.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(n * (n + 1) / 2));
      std::size_t pos = 0;
      for (int r = 0; r < n; ++r) {
        for (int k = 0; k <= r; ++k) EXPECT_EQ(all[pos++], r);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CommGather, BroadcastDeliversRootData) {
  const int n = GetParam();
  World w(n);
  w.run([&](Comm& c) {
    std::vector<double> mine;
    if (c.rank() == 1 % n) mine = {1.5, 2.5, 3.5};
    auto got = c.broadcast_from<double>(1 % n, mine);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_DOUBLE_EQ(got[2], 3.5);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CommGather, ::testing::Values(1, 2, 5));

TEST(PutWindow, ConcurrentAppendsThenDrainAccountsEveryByte) {
  // Every rank deposits records into every inbox (including its own) from its
  // own thread; after the fence each owner drains exactly the bytes addressed
  // to it, whatever interleaving the appends took.
  constexpr int kRanks = 6;
  constexpr int kRecordsPerPair = 50;
  World w(kRanks);
  std::vector<std::vector<std::uint64_t>> drained(kRanks);
  w.run([&](Comm& c) {
    auto win = c.create_window();
    for (int target = 0; target < c.size(); ++target) {
      for (int k = 0; k < kRecordsPerPair; ++k) {
        // Record encodes (source, target, k) so ordering never matters.
        const std::uint64_t rec =
            (static_cast<std::uint64_t>(c.rank()) << 32) |
            (static_cast<std::uint64_t>(target) << 16) |
            static_cast<std::uint64_t>(k);
        c.put(*win, target, std::span<const std::uint64_t>(&rec, 1));
      }
    }
    c.barrier();  // fence: all puts land before any drain
    drained[static_cast<std::size_t>(c.rank())] = c.drain<std::uint64_t>(*win);
  });

  std::uint64_t total_records = 0;
  for (int me = 0; me < kRanks; ++me) {
    const auto& recs = drained[static_cast<std::size_t>(me)];
    ASSERT_EQ(recs.size(), static_cast<std::size_t>(kRanks) * kRecordsPerPair)
        << "rank " << me;
    total_records += recs.size();
    // Ordering-agnostic accounting: every (source, k) pair arrives exactly
    // once, and every record was addressed to this rank.
    std::set<std::pair<int, int>> seen;
    for (const std::uint64_t rec : recs) {
      const int src = static_cast<int>(rec >> 32);
      const int target = static_cast<int>((rec >> 16) & 0xffff);
      const int k = static_cast<int>(rec & 0xffff);
      EXPECT_EQ(target, me);
      EXPECT_TRUE(seen.emplace(src, k).second) << "duplicate record";
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kRanks) * kRecordsPerPair);
  }
  // The traffic counters agree with what was drained.
  EXPECT_EQ(w.total_traffic().onesided_puts, total_records);
  EXPECT_EQ(w.total_traffic().onesided_bytes, total_records * sizeof(std::uint64_t));
}

TEST(PutWindow, DrainIsDestructive) {
  World w(2);
  w.run([](Comm& c) {
    auto win = c.create_window();
    if (c.rank() == 0) {
      const std::uint32_t x = 7;
      c.put(*win, 1, std::span<const std::uint32_t>(&x, 1));
    }
    c.barrier();
    if (c.rank() == 1) {
      EXPECT_EQ(c.drain<std::uint32_t>(*win).size(), 1u);
      EXPECT_TRUE(c.drain<std::uint32_t>(*win).empty());
    }
  });
}

TEST(FencedWindow, DrainHoldsOnlyItsEpochWhilePeersRunAhead) {
  // The invariant behind the one-fence epoch: a rank that drains epoch e
  // only after every peer has already put its epoch e+1 records still finds
  // exactly the records of epoch e. (With one window and one barrier per
  // epoch, the late drain would swallow epoch e+1's records.)
  constexpr int kRanks = 4;
  constexpr int kEpochs = 6;
  World w(kRanks);
  std::array<std::atomic<int>, kEpochs> put_done{};
  w.run([&](Comm& c) {
    FencedWindow win(c);
    for (int e = 0; e < kEpochs; ++e) {
      for (int target = 0; target < c.size(); ++target) {
        const std::uint64_t rec = (static_cast<std::uint64_t>(e) << 32) |
                                  (static_cast<std::uint64_t>(c.rank()) << 16) |
                                  static_cast<std::uint64_t>(target);
        win.put(c, target, std::span<const std::uint64_t>(&rec, 1));
      }
      put_done[static_cast<std::size_t>(e)].fetch_add(1);
      win.fence(c);
      // A different rank is late each epoch: it drains only once all its
      // peers have put the next epoch.
      if (c.rank() == e % c.size() && e + 1 < kEpochs) {
        while (put_done[static_cast<std::size_t>(e + 1)].load() < c.size() - 1) {
          std::this_thread::yield();
        }
      }
      const auto got = win.drain<std::uint64_t>(c);
      EXPECT_EQ(got.size(), static_cast<std::size_t>(kRanks))
          << "rank " << c.rank() << " epoch " << e;
      std::set<int> sources;
      for (const std::uint64_t rec : got) {
        EXPECT_EQ(static_cast<int>(rec >> 32), e) << "rank " << c.rank();
        EXPECT_EQ(static_cast<int>(rec & 0xffff), c.rank());
        sources.insert(static_cast<int>((rec >> 16) & 0xffff));
      }
      EXPECT_EQ(sources.size(), static_cast<std::size_t>(kRanks));
    }
  });
  // Two window creations, one barrier per epoch.
  EXPECT_EQ(w.traffic(0).collectives, 2u + kEpochs);
}

TEST(Request, IsendIrecvWaitDelivers) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> xs{1.5, 2.5};
      Request s = c.isend(1, 3, std::span<const double>(xs));
      // Buffered send: the request is born complete.
      EXPECT_TRUE(c.test(s));
      c.wait(s);
      EXPECT_FALSE(s.valid());
    } else {
      Request r = c.irecv(0, 3);
      Message m = c.wait(r);
      EXPECT_FALSE(r.valid());
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 3);
      auto xs = unpack<double>(m.payload);
      ASSERT_EQ(xs.size(), 2u);
      EXPECT_DOUBLE_EQ(xs[1], 2.5);
    }
  });
}

TEST(Request, IrecvMatchesPrePostedAndQueued) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      // Queued case: message sits in the mailbox before the irecv is posted.
      c.send_value(1, 1, 11);
      c.barrier();
      // Pre-posted case: rank 1 posts before this send leaves.
      c.barrier();
      c.send_value(1, 2, 22);
    } else {
      c.barrier();
      Request q = c.irecv(0, 1);
      EXPECT_TRUE(c.test(q));  // already queued: matched at post time
      EXPECT_EQ(unpack<int>(c.wait(q).payload)[0], 11);
      Request p = c.irecv(0, 2);
      c.barrier();
      EXPECT_EQ(unpack<int>(c.wait(p).payload)[0], 22);
    }
  });
}

TEST(Request, PostedReceiveClaimsBeforeProbe) {
  // deliver() matches pending irecvs BEFORE queueing: once a later message
  // from the same sender is probe-visible, the earlier one must have been
  // claimed by the posted receive, not left in the queue.
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      c.barrier();  // let rank 1 post first
      c.send_value(1, 5, 55);
      c.send_value(1, 6, 66);
    } else {
      Request r = c.irecv(0, 5);
      c.barrier();
      c.probe(0, 6);             // blocks until the SECOND message arrives
      EXPECT_FALSE(c.iprobe(0, 5).has_value());  // first was claimed by the irecv
      EXPECT_TRUE(c.test(r));
      EXPECT_EQ(unpack<int>(c.wait(r).payload)[0], 55);
      c.recv(0, 6);
    }
  });
}

TEST(Request, WildcardIrecvAnySourceAnyTag) {
  const int nranks = 5;
  World w(nranks);
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::set<int> seen;
      for (int i = 0; i < nranks - 1; ++i) {
        Request r = c.irecv(kAnySource, kAnyTag);
        Message m = c.wait(r);
        EXPECT_EQ(m.tag, 100 + m.src);
        seen.insert(m.src);
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(nranks - 1));
    } else {
      c.send_value(0, 100 + c.rank(), c.rank());
    }
  });
}

TEST(Comm, WildcardRecvStressManySenders) {
  // Satellite stress: many concurrent senders into one wildcard receiver,
  // interleaving blocking recv(kAnySource) with iprobe-driven drains. Every
  // message must arrive exactly once with a consistent (src, payload) pair.
  const int nranks = 8;
  constexpr int kPerSender = 200;
  World w(nranks);
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::map<int, std::vector<int>> got;  // src -> payloads in arrival order
      int total = (nranks - 1) * kPerSender;
      while (total > 0) {
        // Drain whatever iprobe sees, then take one blocking wildcard recv.
        while (total > 0 && c.iprobe(kAnySource, 7).has_value()) {
          Message m = c.recv(kAnySource, 7);
          got[m.src].push_back(unpack<int>(m.payload)[0]);
          --total;
        }
        if (total > 0) {
          Message m = c.recv(kAnySource, 7);
          got[m.src].push_back(unpack<int>(m.payload)[0]);
          --total;
        }
      }
      EXPECT_FALSE(c.iprobe(kAnySource, kAnyTag).has_value());
      ASSERT_EQ(got.size(), static_cast<std::size_t>(nranks - 1));
      for (const auto& [src, payloads] : got) {
        ASSERT_EQ(payloads.size(), static_cast<std::size_t>(kPerSender));
        // Per-sender ordering is preserved even under wildcard receives.
        for (int i = 0; i < kPerSender; ++i) {
          EXPECT_EQ(payloads[static_cast<std::size_t>(i)], src * kPerSender + i);
        }
      }
    } else {
      for (int i = 0; i < kPerSender; ++i) {
        c.send_value(0, 7, c.rank() * kPerSender + i);
      }
    }
  });
}

TEST(Request, WaitAllReturnsRequestOrderUnderConcurrentSenders) {
  // wait_all's contract: results come back in REQUEST order regardless of
  // arrival order. Senders fire concurrently and in descending-rank barrier
  // waves, so arrivals are scrambled relative to the post order.
  const int nranks = 8;
  constexpr int kRounds = 50;
  World w(nranks);
  w.run([&](Comm& c) {
    for (int round = 0; round < kRounds; ++round) {
      if (c.rank() == 0) {
        std::vector<Request> rs;
        for (int src = 1; src < nranks; ++src) {
          rs.push_back(c.irecv(src, 9));
        }
        c.barrier();  // release the senders only after every recv is posted
        std::vector<Message> ms = c.wait_all(rs);
        ASSERT_EQ(ms.size(), static_cast<std::size_t>(nranks - 1));
        for (int src = 1; src < nranks; ++src) {
          EXPECT_EQ(ms[static_cast<std::size_t>(src - 1)].src, src);
          EXPECT_EQ(unpack<int>(ms[static_cast<std::size_t>(src - 1)].payload)[0],
                    round * 100 + src);
        }
        for (const Request& r : rs) EXPECT_FALSE(r.valid());
      } else {
        c.barrier();
        c.send_value(0, 9, round * 100 + c.rank());
      }
    }
  });
}

TEST(Request, WaitAnyDrainsEveryChannel) {
  const int nranks = 6;
  World w(nranks);
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<Request> rs;
      for (int src = 1; src < nranks; ++src) rs.push_back(c.irecv(src, 4));
      std::set<int> seen;
      for (int n = 0; n < nranks - 1; ++n) {
        const std::size_t i = c.wait_any(rs);
        Message m = rs[i].take_message();
        EXPECT_EQ(m.src, static_cast<int>(i) + 1);
        seen.insert(m.src);
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(nranks - 1));
    } else {
      c.send_value(0, 4, c.rank());
    }
  });
}

TEST(World, WaitTimeCounted) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      Request r = c.irecv(1, 1);
      c.wait(r);
    } else {
      // Give rank 0 time to block inside wait() so wait_ns accumulates.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      c.send_value(0, 1, 1);
    }
  });
  EXPECT_GT(w.traffic(0).wait_ns, 0u);
  EXPECT_EQ(w.traffic(1).wait_ns, 0u);
}

TEST(Pack, RoundTrip) {
  struct Rec {
    int a;
    double b;
  };
  std::vector<Rec> in{{1, 2.0}, {3, 4.0}};
  auto bytes = pack<Rec>(in);
  auto out = unpack<Rec>(bytes);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].a, 3);
  EXPECT_DOUBLE_EQ(out[1].b, 4.0);
}

}  // namespace
}  // namespace mmd::comm
