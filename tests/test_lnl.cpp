#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "lattice/lattice_neighbor_list.h"
#include "lattice/verlet_list.h"

namespace mmd::lat {
namespace {

constexpr double kA = 2.855;
constexpr double kCut = 5.0;

/// Single-rank LNL covering the whole box.
LatticeNeighborList make_lnl(const BccGeometry& g, int halo = 2) {
  LocalBox box{0, 0, 0, g.nx(), g.ny(), g.nz(), halo};
  return LatticeNeighborList(g, box, kCut);
}

TEST(Lnl, RejectsTooSmallHalo) {
  BccGeometry g(6, 6, 6, kA);
  LocalBox box{0, 0, 0, 6, 6, 6, 1};
  EXPECT_THROW(LatticeNeighborList(g, box, kCut), std::invalid_argument);
}

TEST(Lnl, FillPerfectPopulatesEverything) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  EXPECT_EQ(lnl.count_owned_atoms(), static_cast<std::size_t>(g.num_sites()));
  EXPECT_EQ(lnl.count_owned_vacancies(), 0u);
  EXPECT_EQ(lnl.count_live_runaways(), 0u);
  for (std::size_t i = 0; i < lnl.size(); ++i) {
    EXPECT_TRUE(lnl.entry(i).is_atom());
  }
}

TEST(Lnl, SiteRankWrapsGhosts) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  const LocalBox& b = lnl.box();
  // Ghost cell (-1,0,0) is the wrap of owned cell (3,0,0).
  const std::size_t ghost = b.entry_index({-1, 0, 0, 0});
  const std::size_t owned = b.entry_index({3, 0, 0, 0});
  EXPECT_EQ(lnl.site_rank(ghost), lnl.site_rank(owned));
  // But their ideal positions differ by the box length (local frame).
  EXPECT_NEAR(lnl.ideal_position(owned).x - lnl.ideal_position(ghost).x,
              4 * kA, 1e-12);
}

TEST(Lnl, NeighborCountOnPerfectLattice) {
  BccGeometry g(5, 5, 5, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t center = lnl.box().entry_index({2, 2, 2, 0});
  int count = 0;
  lnl.for_each_neighbor_of_entry(center, [&](const ParticleView&) { ++count; });
  EXPECT_EQ(count, 58);  // shells within 5.0 A
}

TEST(Lnl, NeighborSetMatchesVerletAndLinkedCell) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);

  // Baseline structures on the same perfect crystal.
  std::vector<util::Vec3> pos(static_cast<std::size_t>(g.num_sites()));
  for (std::int64_t id = 0; id < g.num_sites(); ++id) {
    pos[static_cast<std::size_t>(id)] = g.position(g.site_coord(id));
  }
  VerletNeighborList verlet(kCut, 0.0);
  verlet.build(pos, g.box_length());
  LinkedCellList cells(kCut);
  cells.build(pos, g.box_length());

  for (std::size_t idx : lnl.owned_indices()) {
    const std::int64_t id = lnl.entry(idx).id;
    std::set<std::int64_t> from_lnl;
    lnl.for_each_neighbor_of_entry(
        idx, [&](const ParticleView& p) { from_lnl.insert(p.id); });
    std::set<std::int64_t> from_verlet;
    for (std::int32_t j : verlet.neighbors(static_cast<std::size_t>(id))) {
      from_verlet.insert(j);
    }
    std::set<std::int64_t> from_cells;
    cells.for_each_neighbor(static_cast<std::size_t>(id),
                            [&](std::size_t j, const util::Vec3&) {
                              from_cells.insert(static_cast<std::int64_t>(j));
                            });
    ASSERT_EQ(from_lnl, from_verlet) << "atom " << id;
    ASSERT_EQ(from_lnl, from_cells) << "atom " << id;
  }
}

TEST(Lnl, MemoryFootprintBelowVerlet) {
  // The paper's motivation: LNL stores no neighbor indices, so its footprint
  // per atom undercuts a Verlet list with ~58 neighbors per atom.
  BccGeometry g(6, 6, 6, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  std::vector<util::Vec3> pos(static_cast<std::size_t>(g.num_sites()));
  for (std::int64_t id = 0; id < g.num_sites(); ++id) {
    pos[static_cast<std::size_t>(id)] = g.position(g.site_coord(id));
  }
  VerletNeighborList verlet(kCut, 0.6);
  verlet.build(pos, g.box_length());
  // Compare the *neighbor bookkeeping* cost: Verlet index storage vs LNL's
  // fixed offset tables (which do not grow with atom count).
  EXPECT_GT(verlet.memory_bytes(), 50u * pos.size());
}

TEST(Lnl, DetachCreatesVacancyAndRunaway) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t idx = lnl.box().entry_index({1, 1, 1, 0});
  const std::int64_t id = lnl.entry(idx).id;
  lnl.entry(idx).r += util::Vec3{0.4, 0.0, 0.0};  // still nearest to own site
  const std::int32_t ri = lnl.detach(idx);
  ASSERT_NE(ri, AtomEntry::kNoRunaway);
  EXPECT_TRUE(lnl.entry(idx).is_vacancy());
  EXPECT_EQ(AtomEntry::vacancy_site(lnl.entry(idx).id), lnl.site_rank(idx));
  EXPECT_EQ(lnl.entry(idx).r, lnl.ideal_position(idx));  // vacancy coordinates
  EXPECT_EQ(lnl.runaway(ri).id, id);
  EXPECT_EQ(lnl.count_owned_vacancies(), 1u);
  EXPECT_EQ(lnl.count_live_runaways(), 1u);
  // Total atoms conserved.
  EXPECT_EQ(lnl.count_owned_atoms(), static_cast<std::size_t>(g.num_sites()));
}

TEST(Lnl, DetachThrowsOnVacancy) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t idx = lnl.box().entry_index({1, 1, 1, 0});
  lnl.detach(idx);
  EXPECT_THROW(lnl.detach(idx), std::logic_error);
}

TEST(Lnl, RunawayVisibleToNeighbors) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t idx = lnl.box().entry_index({2, 2, 2, 0});
  const std::int64_t id = lnl.entry(idx).id;
  lnl.detach(idx);
  // A 1NN of the detached site must still see the atom (as a run-away).
  const std::size_t nb = lnl.box().entry_index({2, 2, 2, 1});
  bool seen = false;
  int vac_seen = 0;
  lnl.for_each_neighbor_of_entry(nb, [&](const ParticleView& p) {
    if (p.id == id) seen = true;
    if (p.id < 0) ++vac_seen;
  });
  EXPECT_TRUE(seen);
  EXPECT_EQ(vac_seen, 0);  // vacancies are not particles
}

TEST(Lnl, RunawayNeighborsMatchHost) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t idx = lnl.box().entry_index({2, 2, 2, 0});
  const std::int32_t ri = lnl.detach(idx);
  std::set<std::int64_t> seen;
  lnl.for_each_neighbor_of_runaway(ri, idx, [&](const ParticleView& p) {
    EXPECT_NE(p.id, lnl.runaway(ri).id);  // excludes itself
    seen.insert(p.id);
  });
  // All 58 lattice neighbors of the host are still atoms (the vacancy is the
  // host entry itself, which is not in its own neighbor region).
  EXPECT_EQ(seen.size(), 58u);
}

TEST(Lnl, RehomeReoccupiesVacancy) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t idx = lnl.box().entry_index({2, 2, 2, 0});
  const std::int64_t id = lnl.entry(idx).id;
  const std::int32_t ri = lnl.detach(idx);
  // Atom returns to its lattice point.
  lnl.runaway(ri).r = lnl.ideal_position(idx);
  std::vector<RunawayAtom> emigrants;
  const int reoccupied = lnl.rehome_runaways(&emigrants);
  EXPECT_EQ(reoccupied, 1);
  EXPECT_TRUE(emigrants.empty());
  EXPECT_TRUE(lnl.entry(idx).is_atom());
  EXPECT_EQ(lnl.entry(idx).id, id);
  EXPECT_EQ(lnl.count_live_runaways(), 0u);
  EXPECT_EQ(lnl.count_owned_vacancies(), 0u);
}

TEST(Lnl, RehomeRelinksToNewHost) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t idx = lnl.box().entry_index({2, 2, 2, 0});
  const std::int32_t ri = lnl.detach(idx);
  // Move next to the body-center neighbor (occupied -> interstitial stays).
  const std::size_t new_host = lnl.box().entry_index({2, 2, 2, 1});
  lnl.runaway(ri).r = lnl.ideal_position(new_host) + util::Vec3{0.2, 0.0, 0.0};
  lnl.rehome_runaways(nullptr);
  EXPECT_EQ(lnl.entry(new_host).runaway_head, ri);
  EXPECT_EQ(lnl.entry(idx).runaway_head, AtomEntry::kNoRunaway);
}

TEST(Lnl, ChainHandlesMultipleRunaways) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t host = lnl.box().entry_index({2, 2, 2, 0});
  RunawayAtom a;
  a.id = 1000;
  a.r = lnl.ideal_position(host);
  const std::int32_t r1 = lnl.add_runaway(a, host);
  a.id = 1001;
  const std::int32_t r2 = lnl.add_runaway(a, host);
  EXPECT_EQ(lnl.entry(host).runaway_head, r2);
  EXPECT_EQ(lnl.runaway(r2).next, r1);
  lnl.remove_runaway(r1, host);
  EXPECT_EQ(lnl.entry(host).runaway_head, r2);
  EXPECT_EQ(lnl.runaway(r2).next, AtomEntry::kNoRunaway);
  // Pool reuse: freed slot is recycled.
  a.id = 1002;
  EXPECT_EQ(lnl.add_runaway(a, host), r1);
}

TEST(Lnl, RemoveRunawayThrowsIfNotInChain) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t h1 = lnl.box().entry_index({1, 1, 1, 0});
  const std::size_t h2 = lnl.box().entry_index({2, 2, 2, 0});
  RunawayAtom a;
  const std::int32_t ri = lnl.add_runaway(a, h1);
  EXPECT_THROW(lnl.remove_runaway(ri, h2), std::logic_error);
}

TEST(Lnl, ClearGhostsDropsGhostChains) {
  BccGeometry g(4, 4, 4, kA);
  auto lnl = make_lnl(g);
  lnl.fill_perfect(Species::Fe);
  const std::size_t ghost = lnl.box().entry_index({-1, 0, 0, 0});
  RunawayAtom a;
  lnl.add_runaway(a, ghost);
  EXPECT_EQ(lnl.count_live_runaways(), 1u);
  lnl.clear_ghosts();
  EXPECT_EQ(lnl.count_live_runaways(), 0u);
  EXPECT_TRUE(lnl.entry(ghost).is_unset());
}

TEST(Lnl, GhostIndicesAreTheAscendingComplementOfOwned) {
  BccGeometry g(4, 4, 4, kA);
  LocalBox box{0, 0, 0, 2, 4, 4, 2};
  LatticeNeighborList lnl(g, box, kCut);
  const std::vector<std::size_t>& ghosts = lnl.ghost_indices();
  EXPECT_TRUE(std::is_sorted(ghosts.begin(), ghosts.end()));
  EXPECT_EQ(ghosts.size() + lnl.owned_indices().size(), lnl.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < lnl.size(); ++i) {
    if (lnl.is_owned(i)) continue;
    ASSERT_LT(next, ghosts.size());
    EXPECT_EQ(ghosts[next++], i);
  }
}

TEST(Lnl, NearestOwnedEntryClamps) {
  BccGeometry g(4, 4, 4, kA);
  LocalBox box{0, 0, 0, 2, 4, 4, 2};  // pretend a 2-cell-wide subdomain
  LatticeNeighborList lnl(g, box, kCut);
  // Position beyond the owned x-range clamps to an owned site.
  const util::Vec3 outside{3.2 * kA, 1.0 * kA, 1.0 * kA};
  const std::size_t owned = lnl.nearest_owned_entry(outside);
  EXPECT_TRUE(lnl.is_owned(owned));
  // Plain nearest lands in the ghost region instead.
  const std::size_t plain = lnl.nearest_entry(outside);
  EXPECT_FALSE(lnl.is_owned(plain));
}

TEST(Lnl, InteriorBoundaryPartitionOwned) {
  // interior + boundary must partition owned_indices() exactly, interior
  // cells must sit >= halo from every face, and the boundary shell helper
  // must cover the complement with disjoint regions.
  BccGeometry g(6, 6, 6, kA);
  auto lnl = make_lnl(g);
  const LocalBox& b = lnl.box();

  std::set<std::size_t> in(lnl.owned_interior_indices().begin(),
                           lnl.owned_interior_indices().end());
  std::set<std::size_t> bd(lnl.owned_boundary_indices().begin(),
                           lnl.owned_boundary_indices().end());
  EXPECT_EQ(in.size() + bd.size(), lnl.owned_indices().size());
  for (std::size_t i : in) EXPECT_EQ(bd.count(i), 0u);

  const CellRegion interior = interior_region(b, b.halo);
  for (std::size_t i : lnl.owned_indices()) {
    const LocalCoord c = b.coord_of(i);
    EXPECT_EQ(interior.contains(c), in.count(i) == 1) << i;
  }

  // The shell regions are disjoint and cover exactly the boundary indices.
  std::vector<CellRegion> shell;
  boundary_shell(b, b.halo, shell);
  std::set<std::size_t> covered;
  for (const CellRegion& r : shell) {
    for (std::size_t i : lnl.owned_indices()) {
      if (r.contains(b.coord_of(i))) {
        EXPECT_TRUE(covered.insert(i).second) << "region overlap at " << i;
      }
    }
  }
  EXPECT_EQ(covered, bd);
}

TEST(Lnl, InteriorEmptyWhenBoxThin) {
  // A 3-cell box with halo 2 has no cell >= 2 from both faces on any axis:
  // everything is boundary, and the shell collapses to the full owned box.
  BccGeometry g(3, 3, 3, kA);
  auto lnl = make_lnl(g);
  EXPECT_TRUE(lnl.owned_interior_indices().empty());
  EXPECT_EQ(lnl.owned_boundary_indices().size(), lnl.owned_indices().size());
  std::vector<CellRegion> shell;
  boundary_shell(lnl.box(), lnl.box().halo, shell);
  ASSERT_EQ(shell.size(), 1u);
  EXPECT_EQ(shell[0].cells(), 27u);
}

TEST(Lnl, MemoryBytesGrowsWithBox) {
  BccGeometry g4(4, 4, 4, kA);
  BccGeometry g8(8, 8, 8, kA);
  auto small = make_lnl(g4);
  auto large = make_lnl(g8);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
}

}  // namespace
}  // namespace mmd::lat
