#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lattice/ghost_exchange.h"
#include "lattice/lattice_neighbor_list.h"
#include "lattice/soa_pack.h"
#include "md/engine.h"

namespace mmd::lat {
namespace {

TEST(SoaPlanes, SlotMappingIsABijection) {
  LocalBox box;
  box.lx = box.ly = box.lz = 4;
  box.halo = 2;
  SoaPlanes p;
  p.reset(box);
  ASSERT_EQ(p.size(), box.num_entries());
  std::vector<bool> seen(p.size(), false);
  for (std::size_t idx = 0; idx < p.size(); ++idx) {
    const std::size_t s = p.slot(idx);
    ASSERT_LT(s, p.size());
    EXPECT_FALSE(seen[s]) << "slot " << s << " hit twice";
    seen[s] = true;
    EXPECT_EQ(p.entry_of(s), idx);
  }
}

TEST(SoaPlanes, SublatticeRowsAreContiguous) {
  // The point of the layout: walking +x within one sublattice advances the
  // plane slot by exactly 1, so neighbor loads across a 4-atom SIMD group
  // are unit-stride.
  LocalBox box;
  box.lx = 5;
  box.ly = 4;
  box.lz = 3;
  box.halo = 2;
  SoaPlanes p;
  p.reset(box);
  for (int sub = 0; sub <= 1; ++sub) {
    const std::size_t s0 = p.slot(box.entry_index({0, 1, 1, sub}));
    for (int x = 1; x < box.lx; ++x) {
      EXPECT_EQ(p.slot(box.entry_index({x, 1, 1, sub})),
                s0 + static_cast<std::size_t>(x));
    }
  }
  // And the two sublattices are fully deinterleaved: sub 1 lives in the
  // second half of each plane.
  EXPECT_EQ(p.slot(0), 0u);
  EXPECT_EQ(p.slot(1), p.cells());
}

/// Pack/unpack round-trip on a thermalized box containing all entry kinds:
/// owned atoms, ghost copies, vacancy tombstones from detached run-aways,
/// and unset ghost slots.
TEST(SoaPlanes, RoundTripWithGhostsAndRunaways) {
  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.temperature = 500.0;
  cfg.table_segments = 500;
  const md::MdSetup setup(cfg, 1);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 3);
    auto& lnl = engine.lattice();
    // Force a run-away: its lattice entry becomes a vacancy tombstone.
    const std::size_t det = lnl.box().entry_index({3, 3, 3, 0});
    lnl.entry(det).r += util::Vec3{0.5, 0.3, 0.1};
    lnl.detach(det);
    GhostExchange ghosts(lnl, setup.dd, comm.rank());
    ghosts.exchange(comm);
    ASSERT_TRUE(lnl.entry(det).is_vacancy());

    SoaPlanes p;
    p.reset(lnl.box());
    p.pack_positions(lnl);

    std::size_t atoms = 0, nonatoms = 0;
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      const AtomEntry& e = lnl.entry(i);
      const util::Vec3 r = p.position(i);
      EXPECT_EQ(r.x, e.r.x);
      EXPECT_EQ(r.y, e.r.y);
      EXPECT_EQ(r.z, e.r.z);
      if (e.is_atom()) {
        ++atoms;
        EXPECT_EQ(p.packed_id(i), static_cast<double>(e.id));
      } else {
        ++nonatoms;  // vacancy tombstone or unset ghost
        EXPECT_LT(p.packed_id(i), 0.0);
      }
    }
    EXPECT_GT(atoms, 0u);
    EXPECT_GT(nonatoms, 0u);  // the detached entry at least
  });
}

TEST(SoaPlanes, TailPadHoldsEveryLaneGroupRead) {
  // A lane group is four consecutive cells of one owned row and sublattice,
  // starting at every fourth cell, so on rows whose length is no multiple of
  // four the last lanes lie up to three cells past the row. Every slot a
  // group loads must lie inside the planes, and the pad must read as
  // non-atom.
  const double a = 2.855;
  const double cutoff = 5.6;
  for (const int lx : {5, 6, 7, 8}) {
    SCOPED_TRACE(lx);
    LocalBox box;
    box.lx = lx;
    box.ly = 3;
    box.lz = 2;
    box.halo = required_halo_cells(a, cutoff);
    SoaPlanes p;
    p.reset(box);
    const auto cells = static_cast<std::int64_t>(p.cells());
    const auto end = static_cast<std::int64_t>(p.size() + SoaPlanes::kTailPad);
    std::int64_t lowest = end, highest = 0;
    for (int sub = 0; sub <= 1; ++sub) {
      for (const SiteOffset& o : bcc_neighbor_offsets(a, cutoff, sub)) {
        const std::int64_t delta =
            box.flat_delta(o.dx, o.dy, o.dz, 0) / 2 + (o.to_sub - sub) * cells;
        for (int z = 0; z < box.lz; ++z) {
          for (int y = 0; y < box.ly; ++y) {
            for (int x0 = 0; x0 < box.lx; x0 += 4) {
              const auto c = static_cast<std::int64_t>(
                  p.slot(box.entry_index({x0, y, z, sub})));
              lowest = std::min(lowest, c + delta);
              highest = std::max(highest, c + delta + 3);
            }
          }
        }
      }
    }
    EXPECT_GE(lowest, 0);
    EXPECT_LT(highest, end);
    for (std::size_t s = p.size(); s < p.size() + SoaPlanes::kTailPad; ++s) {
      EXPECT_LT(p.id()[s], 0.0) << "pad slot " << s;
    }
  }
}

TEST(SoaPlanes, ParticleSlotsRoundTripThroughFprimePlane) {
  // lat::ParticleView::slot indexes the F'(rho) plane that both paths of
  // md::ReferenceForce read: entries at SoaPlanes::slot, run-away nodes
  // (owned and ghost chains) after every entry. Write each particle's x
  // into its slot and read it back through every visit.
  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.temperature = 500.0;
  cfg.table_segments = 500;
  const md::MdSetup setup(cfg, 1);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
    engine.initialize(comm);
    auto& lnl = engine.lattice();
    for (const LocalCoord c : {LocalCoord{1, 1, 1, 0}, LocalCoord{4, 2, 3, 1}}) {
      const std::size_t det = lnl.box().entry_index(c);
      lnl.entry(det).r += util::Vec3{0.5, 0.3, 0.1};
      lnl.detach(det);
    }
    GhostExchange ghosts(lnl, setup.dd, comm.rank());
    ghosts.exchange(comm);

    SoaPlanes p;
    p.reset(lnl.box(), lnl.runaway_slots());
    double* fp = p.fprime();
    std::size_t nodes = 0;
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      ASSERT_EQ(lnl.entry_slot(i), p.slot(i));
      fp[p.slot(i)] = lnl.entry(i).r.x;
      for (std::int32_t ri = lnl.entry(i).runaway_head;
           ri != AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
        const std::size_t s = lnl.runaway_slot(ri);
        ASSERT_GE(s, p.size());
        ASSERT_LT(s, p.size() + lnl.runaway_slots());
        fp[s] = lnl.runaway(ri).r.x;
        ++nodes;
      }
    }
    EXPECT_GT(nodes, 2u) << "owned chains and their ghost images";
    std::size_t visits = 0, runaway_visits = 0;
    for (std::size_t idx : lnl.owned_indices()) {
      lnl.for_each_neighbor_of_entry(idx, [&](const ParticleView& v) {
        EXPECT_EQ(fp[v.slot], v.r.x) << "slot " << v.slot;
        ++visits;
        if (v.slot >= p.size()) ++runaway_visits;
      });
    }
    lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
      lnl.for_each_neighbor_of_runaway(ri, host, [&](const ParticleView& v) {
        EXPECT_EQ(fp[v.slot], v.r.x) << "slot " << v.slot;
      });
    });
    EXPECT_GT(visits, 0u);
    EXPECT_GT(runaway_visits, 0u);
  });
}

TEST(SoaPlanes, ResetResizesForNewBox) {
  SoaPlanes p;
  LocalBox small;
  small.lx = small.ly = small.lz = 2;
  small.halo = 1;
  p.reset(small);
  EXPECT_EQ(p.size(), small.num_entries());
  LocalBox big;
  big.lx = big.ly = big.lz = 6;
  big.halo = 2;
  p.reset(big);
  EXPECT_EQ(p.size(), big.num_entries());
  EXPECT_EQ(p.cells(), big.num_cells());
  // Shrinking keeps the old entries' ids where the new pad lies: reset must
  // rewrite it.
  for (std::size_t s = 0; s < p.size(); ++s) p.id()[s] = 7.0;
  p.reset(small);
  for (std::size_t s = p.size(); s < p.size() + SoaPlanes::kTailPad; ++s) {
    EXPECT_LT(p.id()[s], 0.0) << "pad slot " << s;
  }
}

}  // namespace
}  // namespace mmd::lat
