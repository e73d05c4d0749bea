#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "comm/world.h"
#include "lattice/ghost_exchange.h"

namespace mmd::lat {
namespace {

constexpr double kA = 2.855;
constexpr double kCut = 5.0;

struct Fixture {
  BccGeometry geo;
  DomainDecomposition dd;

  Fixture(int n, int nranks) : geo(n, n, n, kA), dd(geo, nranks, 2) {}
};

/// Ghost entries must mirror the owner's data, with positions shifted by the
/// box length across the periodic boundary.
void check_ghosts_consistent(const BccGeometry& /*geo*/, LatticeNeighborList& lnl) {
  const LocalBox& b = lnl.box();
  for (std::size_t i = 0; i < lnl.size(); ++i) {
    const LocalCoord c = b.coord_of(i);
    if (b.owns(c)) continue;
    const AtomEntry& e = lnl.entry(i);
    ASSERT_FALSE(e.is_unset()) << "ghost not filled at (" << c.x << "," << c.y
                               << "," << c.z << "," << c.sub << ")";
    if (!e.is_atom()) continue;
    // Position must equal the ideal local-frame position for a perfect
    // crystal (the exchange applied the right shift).
    const util::Vec3 ideal = lnl.ideal_position(i);
    ASSERT_NEAR((e.r - ideal).norm(), 0.0, 1e-12);
    ASSERT_EQ(e.id, lnl.site_rank(i));
  }
}

class GhostExchangeRanks : public ::testing::TestWithParam<int> {};

TEST_P(GhostExchangeRanks, PerfectCrystalGhostsFilled) {
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    // fill_perfect already fills every ghost, and the exchange overwrites
    // ghosts without resetting them: unset them first, so a ghost that no
    // receive slab covers shows up.
    lnl.clear_ghosts();
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    check_ghosts_consistent(fx.geo, lnl);
    EXPECT_GT(ghosts.bytes_sent(), 0u);
  });
}

TEST_P(GhostExchangeRanks, PerturbedPositionsPropagate) {
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    // Deterministic per-site perturbation on owned entries.
    for (std::size_t idx : lnl.owned_indices()) {
      AtomEntry& e = lnl.entry(idx);
      const double s = 0.01 * static_cast<double>(e.id % 7);
      e.r += util::Vec3{s, -s, 0.5 * s};
      e.rho = static_cast<double>(e.id);
    }
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    // Every ghost must carry the same perturbation (in the local frame).
    const LocalBox& b = lnl.box();
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      if (b.owns(b.coord_of(i))) continue;
      const AtomEntry& e = lnl.entry(i);
      const double s = 0.01 * static_cast<double>(e.id % 7);
      const util::Vec3 expect = lnl.ideal_position(i) + util::Vec3{s, -s, 0.5 * s};
      ASSERT_NEAR((e.r - expect).norm(), 0.0, 1e-12);
      ASSERT_DOUBLE_EQ(e.rho, static_cast<double>(e.id));
    }
  });
}

TEST_P(GhostExchangeRanks, RhoExchangeRefreshesGhostDensity) {
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    for (std::size_t idx : lnl.owned_indices()) {
      lnl.entry(idx).rho = 1000.0 + static_cast<double>(lnl.entry(idx).id);
    }
    ghosts.exchange_rho(comm);
    const LocalBox& b = lnl.box();
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      if (b.owns(b.coord_of(i))) continue;
      ASSERT_DOUBLE_EQ(lnl.entry(i).rho,
                       1000.0 + static_cast<double>(lnl.entry(i).id));
    }
  });
}

TEST_P(GhostExchangeRanks, RunawaysAppearInGhostChains) {
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    // Every rank detaches the atom at its owned origin corner site.
    const std::size_t idx = lnl.box().entry_index({0, 0, 0, 0});
    lnl.entry(idx).r += util::Vec3{0.3, 0.3, 0.3};
    lnl.detach(idx);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    // Globally there are nranks run-aways; locally we must see our own plus
    // every ghost image of neighbors' run-aways. At minimum: ghost chain
    // nodes exist somewhere if nranks > 1 or the box wraps (always true).
    std::size_t chain_nodes = 0;
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      for (std::int32_t ri = lnl.entry(i).runaway_head;
           ri != AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
        ++chain_nodes;
      }
    }
    EXPECT_GT(chain_nodes, 1u);  // own + at least one ghost image
    // The vacancy tombstone must also be visible in ghost copies.
    std::size_t ghost_vacancies = 0;
    const LocalBox& b = lnl.box();
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      if (!b.owns(b.coord_of(i)) && lnl.entry(i).is_vacancy()) ++ghost_vacancies;
    }
    EXPECT_GT(ghost_vacancies, 0u);
  });
}

TEST_P(GhostExchangeRanks, EmigrantRoutedToOwner) {
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    std::vector<RunawayAtom> emigrants;
    if (comm.rank() == 0) {
      // Rank 0 pushes an atom across its low-x boundary (wraps to the far
      // side of the box, possibly another rank).
      const std::size_t idx = lnl.box().entry_index({0, 2, 2, 0});
      AtomEntry& e = lnl.entry(idx);
      e.r += util::Vec3{-0.8 * kA, 0.0, 0.0};
      lnl.detach(idx, &emigrants);
      lnl.rehome_runaways(&emigrants);
    }
    ghosts.exchange(comm, std::move(emigrants));
    // Atom count is conserved globally.
    const auto atoms = comm.allreduce_sum_u64(
        static_cast<std::uint64_t>(lnl.count_owned_atoms()));
    EXPECT_EQ(atoms, static_cast<std::uint64_t>(fx.geo.num_sites()));
    const auto vacs = comm.allreduce_sum_u64(
        static_cast<std::uint64_t>(lnl.count_owned_vacancies()));
    EXPECT_EQ(vacs, 1u);
  });
}

TEST_P(GhostExchangeRanks, ForwardExchangeShipsGhostRecords) {
  // The wire contract of a forward exchange: each send-slab entry travels as
  // a 48-byte ghost record (r, rho, id, species), so on a perfect crystal
  // (no chains, no emigrants) one exchange sends exactly
  // entries x 48 + 6 messages x 3 section headers. A send slab mirrors one
  // of this rank's receive slabs, so its entries sum to the ghost count.
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    for (std::size_t idx : lnl.owned_indices()) {
      AtomEntry& e = lnl.entry(idx);
      const double s = 0.01 * static_cast<double>(e.id % 5);
      e.r += util::Vec3{-s, 0.5 * s, s};
      e.rho = 3.0 + static_cast<double>(e.id);
      if (e.id % 3 == 0) e.type = Species::Cu;
    }
    lnl.clear_ghosts();
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    constexpr std::uint64_t kRecord = 48, kHeaders = 6 * 3 * sizeof(std::uint64_t);
    EXPECT_EQ(ghosts.bytes_sent(), lnl.ghost_indices().size() * kRecord + kHeaders);
    for (std::size_t i : lnl.ghost_indices()) {
      const AtomEntry& e = lnl.entry(i);
      ASSERT_EQ(e.id, lnl.site_rank(i));
      const double s = 0.01 * static_cast<double>(e.id % 5);
      ASSERT_NEAR((e.r - (lnl.ideal_position(i) + util::Vec3{-s, 0.5 * s, s})).norm(),
                  0.0, 1e-12);
      ASSERT_EQ(e.rho, 3.0 + static_cast<double>(e.id));
      ASSERT_EQ(e.type, e.id % 3 == 0 ? Species::Cu : Species::Fe);
    }
  });
}

TEST_P(GhostExchangeRanks, RhoRefreshAfterAdoptionMatchesOwners) {
  // An emigrant adopted at the end of exchange() joins an owned chain the
  // forward phases have already sent, so no peer holds an image of it. The
  // rho refresh must skip it: every ghost chain node then carries its own
  // owner's rho, and the chain-count checks stay quiet.
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    std::vector<RunawayAtom> emigrants;
    // A run-away that stays home, beside the high-x face (1 A from its
    // site: past the re-occupation threshold), after the emigrant's new
    // host in slab order, so a value sent for the emigrant would land on
    // this run-away's image.
    const std::size_t stay = lnl.box().entry_index({lnl.box().lx - 1, 3, 3, 0});
    lnl.entry(stay).r += util::Vec3{1.0, 0.0, 0.0};
    lnl.detach(stay);
    // One that crosses the low-x face (to a peer, or around the box).
    const std::size_t idx = lnl.box().entry_index({0, 2, 2, 0});
    lnl.entry(idx).r += util::Vec3{-0.8 * kA, 0.0, 0.0};
    lnl.detach(idx, &emigrants);
    lnl.rehome_runaways(&emigrants);
    ghosts.exchange(comm, std::move(emigrants));
    lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
      lnl.runaway(ri).rho = 1000.0 + static_cast<double>(lnl.runaway(ri).id);
    });
    ghosts.exchange_rho(comm);
    std::size_t ghost_nodes = 0;
    for (std::size_t i : lnl.ghost_indices()) {
      for (std::int32_t ri = lnl.entry(i).runaway_head;
           ri != AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
        ASSERT_EQ(lnl.runaway(ri).rho, 1000.0 + static_cast<double>(lnl.runaway(ri).id));
        ++ghost_nodes;
      }
    }
    EXPECT_GT(comm.allreduce_sum_u64(ghost_nodes), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, GhostExchangeRanks,
                         ::testing::Values(1, 2, 4, 8));

TEST(GhostExchange, RhoRefreshRejectsAChainThatLostANode) {
  // exchange_rho matches chain values to ghost chain nodes by position. In
  // a 1-rank world every halo message is a self-send; drop one ghost chain
  // node after exchange() and the refresh must throw instead of handing
  // every later node in that slab its predecessor's rho.
  Fixture fx(8, 1);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(0), kCut);
    lnl.fill_perfect(Species::Fe);
    const std::size_t idx = lnl.box().entry_index({0, 0, 0, 0});
    lnl.entry(idx).r += util::Vec3{0.3, 0.3, 0.3};
    lnl.detach(idx);
    GhostExchange ghosts(lnl, fx.dd, 0);
    ghosts.exchange(comm);
    ghosts.exchange_rho(comm);  // consistent layout: no throw
    for (std::size_t i : lnl.ghost_indices()) {
      const std::int32_t head = lnl.entry(i).runaway_head;
      if (head == AtomEntry::kNoRunaway) continue;
      lnl.remove_runaway(head, i);
      break;
    }
    EXPECT_THROW(ghosts.exchange_rho(comm), std::runtime_error);
  });
}

class ReverseAccumulate : public ::testing::TestWithParam<int> {};

TEST_P(ReverseAccumulate, HaloContributionsSumOnOwner) {
  // Seed every entry's rho with 1.0 (owned AND ghost copies). After reverse
  // accumulation, each owned entry holds 1 + (number of ghost images of its
  // site across all ranks) — exactly the multiplicity the forward exchange
  // created. Verifies routing, ordering, and corner forwarding.
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    for (std::size_t i = 0; i < lnl.size(); ++i) lnl.entry(i).rho = 1.0;
    ghosts.reverse_accumulate_rho(comm);
    // Count global images per site: every rank's storage contributes one
    // image per representation. Compute expected multiplicity directly from
    // all ranks' boxes.
    const LocalBox& b = lnl.box();
    for (std::size_t idx : lnl.owned_indices()) {
      const LocalCoord c = b.coord_of(idx);
      // Expected: 1 (self) + number of ghost images globally. Each axis
      // contributes independently: a site has an image in a rank's storage
      // for every in-halo representation; total images = product over axes
      // of per-axis representation counts summed over rank slabs. Instead of
      // re-deriving, use the known closed form for this uniform grid: count
      // images by brute force over all ranks' boxes.
      int images = 0;
      const SiteCoord g = fx.geo.wrap({c.x + b.ox, c.y + b.oy, c.z + b.oz, c.sub});
      for (int r = 0; r < nranks; ++r) {
        const LocalBox rb = fx.dd.local_box(r);
        auto reps = [&](int gc, int origin, int len, int n) {
          int cnt = 0;
          int base = (gc - origin) % n;
          while (base - n >= -rb.halo) base -= n;
          while (base < -rb.halo) base += n;
          for (int cc = base; cc < len + rb.halo; cc += n) ++cnt;
          return cnt;
        };
        images += reps(g.x, rb.ox, rb.lx, fx.geo.nx()) *
                  reps(g.y, rb.oy, rb.ly, fx.geo.ny()) *
                  reps(g.z, rb.oz, rb.lz, fx.geo.nz());
      }
      ASSERT_NEAR(lnl.entry(idx).rho, static_cast<double>(images), 1e-12)
          << "site (" << c.x << "," << c.y << "," << c.z << "," << c.sub << ")";
    }
  });
}

TEST_P(ReverseAccumulate, ForceFieldRoundTrip) {
  // Zero forces everywhere except a constant vector on every ghost entry;
  // after the reverse pass the total force over owned entries must equal
  // (ghost count across all ranks) * that vector — nothing lost or dropped.
  const int nranks = GetParam();
  Fixture fx(8, nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    const LocalBox& b = lnl.box();
    std::uint64_t my_ghosts = 0;
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      const bool owned = b.owns(b.coord_of(i));
      lnl.entry(i).f = owned ? util::Vec3{} : util::Vec3{1.0, -2.0, 3.0};
      if (!owned) ++my_ghosts;
    }
    ghosts.reverse_accumulate_force(comm);
    util::Vec3 total{};
    for (std::size_t idx : lnl.owned_indices()) total += lnl.entry(idx).f;
    const double sum_x = comm.allreduce_sum(total.x);
    const auto ghost_count = comm.allreduce_sum_u64(my_ghosts);
    EXPECT_NEAR(sum_x, static_cast<double>(ghost_count) * 1.0, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReverseAccumulate,
                         ::testing::Values(1, 2, 4, 8));

TEST(GhostExchange, BytesSentCountsEveryPath) {
  // bytes_sent() must grow across ALL traffic paths — full exchange,
  // rho-only refresh (split-phase included), and both reverse accumulations
  // — so the weak-scaling communication split sees the whole volume.
  Fixture fx(8, 4);
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());

    ghosts.exchange(comm);
    const std::uint64_t after_full = ghosts.bytes_sent();
    EXPECT_GT(after_full, 0u);

    ghosts.exchange_rho(comm);
    const std::uint64_t after_rho = ghosts.bytes_sent();
    EXPECT_GT(after_rho, after_full);

    auto flight = ghosts.begin_exchange_rho(comm);
    ghosts.finish_exchange_rho(comm, flight);
    const std::uint64_t after_split_rho = ghosts.bytes_sent();
    EXPECT_GT(after_split_rho, after_rho);
    // Split-phase and one-shot rho refreshes move identical volume.
    EXPECT_EQ(after_split_rho - after_rho, after_rho - after_full);

    ghosts.reverse_accumulate_rho(comm);
    const std::uint64_t after_rev_rho = ghosts.bytes_sent();
    EXPECT_GT(after_rev_rho, after_split_rho);

    ghosts.reverse_accumulate_force(comm);
    const std::uint64_t after_rev_f = ghosts.bytes_sent();
    EXPECT_GT(after_rev_f, after_rev_rho);
    // Force slabs carry Vec3 per entry vs one double for rho: 3x the volume.
    EXPECT_EQ(after_rev_f - after_rev_rho, 3 * (after_rev_rho - after_split_rho));

    // Re-fill ghosts: reverse accumulation leaves them garbage by contract.
    ghosts.exchange(comm);
  });
}

TEST(GhostExchange, SplitRhoMatchesOneShot) {
  // begin/finish with perturbed owned rho must leave ghosts identical to the
  // one-shot exchange_rho (the overlap path is physics-identical).
  Fixture fx(8, 8);
  comm::World world(8);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    for (std::size_t idx : lnl.owned_indices()) {
      AtomEntry& e = lnl.entry(idx);
      e.rho = 5.0 + 0.25 * static_cast<double>(e.id % 101);
    }
    ghosts.exchange_rho(comm);
    std::vector<double> oneshot(lnl.size());
    for (std::size_t i = 0; i < lnl.size(); ++i) oneshot[i] = lnl.entry(i).rho;
    // Scramble ghost rho, then redo via the split-phase path.
    const LocalBox& b = lnl.box();
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      if (!b.owns(b.coord_of(i))) lnl.entry(i).rho = -777.0;
    }
    auto flight = ghosts.begin_exchange_rho(comm);
    ghosts.finish_exchange_rho(comm, flight);
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      ASSERT_EQ(lnl.entry(i).rho, oneshot[i]) << "entry " << i;
    }
  });
}

TEST(GhostExchange, StaticPlanIsReusable) {
  // Two consecutive exchanges produce the same ghost state (pattern reuse,
  // paper: "the communication pattern is static").
  Fixture fx(8, 2);
  comm::World world(2);
  world.run([&](comm::Comm& comm) {
    LatticeNeighborList lnl(fx.geo, fx.dd.local_box(comm.rank()), kCut);
    lnl.fill_perfect(Species::Fe);
    GhostExchange ghosts(lnl, fx.dd, comm.rank());
    ghosts.exchange(comm);
    std::vector<util::Vec3> snapshot(lnl.size());
    for (std::size_t i = 0; i < lnl.size(); ++i) snapshot[i] = lnl.entry(i).r;
    ghosts.exchange(comm);
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      ASSERT_EQ(lnl.entry(i).r, snapshot[i]);
    }
  });
}

}  // namespace
}  // namespace mmd::lat
