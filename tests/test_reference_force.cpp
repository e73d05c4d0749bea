// Deep physics checks of the EAM force engine: analytic dimer limits,
// force-energy consistency (F = -dE/dx by finite differences), and
// translational invariance. Plus a bitwise oracle: the production kernel
// (cached F'(rho) plane, one table window per pair) against a frozen
// per-pair kernel on a multi-rank cascade.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>

#include "lattice/ghost_exchange.h"
#include "md/engine.h"
#include "md/reference_force.h"

namespace mmd::md {
namespace {

constexpr double kA = 2.855;

struct Crystal {
  MdConfig cfg;
  MdSetup setup;
  pot::EamTableSet tables;

  Crystal()
      : cfg(make_cfg()),
        setup(cfg, 1),
        tables(pot::EamTableSet::build(
            pot::EamModel::iron(kA, cfg.cutoff), cfg.table_segments)) {}

  static MdConfig make_cfg() {
    MdConfig c;
    c.nx = c.ny = c.nz = 6;
    c.temperature = 0.0;
    c.table_segments = 2000;
    return c;
  }
};

/// Total potential energy after refreshing rho (serial, periodic).
double energy_of(Crystal& x, lat::LatticeNeighborList& lnl,
                 lat::GhostExchange& ghosts, comm::Comm& comm) {
  ReferenceForce force(x.tables);
  ghosts.exchange(comm);
  force.compute_rho(lnl);
  ghosts.exchange_rho(comm);
  return force.potential_energy(lnl);
}

TEST(ReferenceForce, CohesiveEnergyIsNegative) {
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    const double e = energy_of(x, lnl, ghosts, comm);
    const double per_atom = e / static_cast<double>(x.setup.geo.num_sites());
    // Bound crystal: negative cohesive energy of a few eV per atom.
    EXPECT_LT(per_atom, -0.5);
    EXPECT_GT(per_atom, -20.0);
  });
}

TEST(ReferenceForce, ForceMatchesEnergyGradient) {
  // Displace one atom along x and compare -dE/dx (finite difference of the
  // total energy) with the computed force component.
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    ReferenceForce force(x.tables);
    const std::size_t idx = lnl.box().entry_index({3, 3, 3, 0});

    auto energy_at = [&](double dx) {
      lnl.fill_perfect(lat::Species::Fe);
      lnl.entry(idx).r += util::Vec3{0.2 + dx, 0.1, -0.15};
      return energy_of(x, lnl, ghosts, comm);
    };
    const double h = 1e-5;
    const double dEdx = (energy_at(h) - energy_at(-h)) / (2.0 * h);

    lnl.fill_perfect(lat::Species::Fe);
    lnl.entry(idx).r += util::Vec3{0.2, 0.1, -0.15};
    ghosts.exchange(comm);
    force.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    force.compute_forces(lnl);
    EXPECT_NEAR(lnl.entry(idx).f.x, -dEdx, 5e-4 * std::max(1.0, std::abs(dEdx)));
  });
}

TEST(ReferenceForce, NewtonsThirdLawForPerturbedPair) {
  // Perturb two atoms; the force changes they induce on each other must be
  // equal and opposite (full-loop symmetry check via total-force sum).
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    lnl.entry(lnl.box().entry_index({2, 2, 2, 0})).r += util::Vec3{0.3, 0, 0};
    lnl.entry(lnl.box().entry_index({3, 3, 3, 1})).r += util::Vec3{0, -0.25, 0.1};
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    ReferenceForce force(x.tables);
    ghosts.exchange(comm);
    force.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    force.compute_forces(lnl);
    util::Vec3 total{};
    for (std::size_t i : lnl.owned_indices()) {
      if (lnl.entry(i).is_atom()) total += lnl.entry(i).f;
    }
    EXPECT_NEAR(total.norm(), 0.0, 1e-8);
  });
}

TEST(ReferenceForce, TranslationalInvariance) {
  // Shifting every atom by the same vector (mod the box) leaves energy and
  // force magnitudes unchanged.
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);

    lnl.fill_perfect(lat::Species::Fe);
    const std::size_t probe = lnl.box().entry_index({3, 3, 3, 0});
    lnl.entry(probe).r += util::Vec3{0.3, 0.2, 0.1};
    const double e0 = energy_of(x, lnl, ghosts, comm);

    lnl.fill_perfect(lat::Species::Fe);
    const util::Vec3 shift{0.4, -0.7, 1.1};
    for (std::size_t i : lnl.owned_indices()) lnl.entry(i).r += shift;
    lnl.entry(probe).r += util::Vec3{0.3, 0.2, 0.1};
    const double e1 = energy_of(x, lnl, ghosts, comm);
    EXPECT_NEAR(e0, e1, 1e-7 * std::abs(e0));
  });
}

TEST(ReferenceForce, DimerForceIsRadialAndAntisymmetric) {
  // A perturbed 1NN pair: force difference lies along the pair axis.
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    const std::size_t a = lnl.box().entry_index({3, 3, 3, 0});
    const std::size_t b = lnl.box().entry_index({3, 3, 3, 1});
    // Compress the pair along its axis.
    const util::Vec3 axis = (lnl.entry(b).r - lnl.entry(a).r).normalized();
    lnl.entry(a).r += axis * 0.2;
    lnl.entry(b).r -= axis * 0.2;
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    ReferenceForce force(x.tables);
    ghosts.exchange(comm);
    force.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    force.compute_forces(lnl);
    const util::Vec3 fa = lnl.entry(a).f;
    const util::Vec3 fb = lnl.entry(b).f;
    // By the symmetry of the compressed configuration, f_a = -f_b and both
    // point outward along the axis (repulsive at compression).
    EXPECT_NEAR((fa + fb).norm(), 0.0, 1e-8);
    EXPECT_LT(fa.dot(axis), 0.0);
    EXPECT_GT(fb.dot(axis), 0.0);
    // Radial: no component orthogonal to the axis.
    EXPECT_NEAR(fa.cross(axis).norm(), 0.0, 1e-8);
  });
}

/// Frozen per-pair EAM force kernel: phi' and f' from two separate table
/// lookups, and the neighbour's F'(rho_j) evaluated for every pair. The
/// production kernel caches F'(rho) per particle and shares one window
/// between phi' and f'; both must give the same bits.
template <typename Visit>
util::Vec3 per_pair_force(const pot::EamTableSet& tables, const util::Vec3& r0,
                          int t0, double rho0, Visit&& visit) {
  const double cut2 = tables.cutoff * tables.cutoff;
  const double r_min = tables.r_min;
  const double fp0 = tables.embed_of(t0).derivative(rho0);
  util::Vec3 force;
  visit([&](const lat::ParticleView& p) {
    const util::Vec3 d = p.r - r0;
    const double r2 = d.norm2();
    if (r2 > cut2 || r2 == 0.0) return;
    const double r = std::max(std::sqrt(r2), r_min);
    const int t1 = static_cast<int>(p.type);
    double dphi, df;
    tables.phi(t0, t1).eval(r, nullptr, &dphi);
    tables.f(t0, t1).eval(r, nullptr, &df);
    const double fp1 = tables.embed_of(t1).derivative(p.rho);
    const double scale = (dphi + (fp0 + fp1) * df) / r;
    force += d * scale;
  });
  return force;
}

class ReferenceForceOracle : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceForceOracle, CascadeForcesMatchPerPairKernelBitwise) {
  // Two 80 eV knock-ons, one beside the centre planes where 2- and 4-rank
  // decompositions cut the box and one beside the periodic faces, so that
  // after a few steps run-aways exist and their ghost chains carry rho on
  // every rank count. The engine's force on every owned entry and owned
  // run-away must equal the frozen kernel's, evaluated on the same
  // positions and (exchanged) rho.
  const int nranks = GetParam();
  MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.temperature = 600.0;
  cfg.table_segments = 2000;
  const MdSetup setup(cfg, nranks);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);
  constexpr int kSteps = 40;

  std::mutex m;
  std::size_t compared = 0, mismatches = 0, runaways_compared = 0;
  std::size_t ghost_chain_nodes = 0;
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
    engine.initialize(comm);
    engine.inject_pka(comm, setup.geo.site_id({3, 3, 3, 1}),
                      util::Vec3{1.0, 0.6, 0.3}, 80.0);
    engine.inject_pka(comm, setup.geo.site_id({7, 0, 7, 1}),
                      util::Vec3{0.4, -1.0, 0.7}, 80.0);
    std::size_t n = 0, bad = 0, n_runaway = 0, n_ghost_chain = 0;
    for (int s = 0; s < kSteps; ++s) {
      engine.step(comm);
      const lat::LatticeNeighborList& lnl = engine.lattice();
      for (std::size_t idx : lnl.owned_indices()) {
        const lat::AtomEntry& e = lnl.entry(idx);
        if (!e.is_atom()) continue;
        const util::Vec3 f = per_pair_force(
            tables, e.r, static_cast<int>(e.type), e.rho,
            [&](auto&& v) { lnl.for_each_neighbor_of_entry(idx, v); });
        ++n;
        if (!(f == e.f)) ++bad;
      }
      lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
        const lat::RunawayAtom& a = lnl.runaway(ri);
        const util::Vec3 f = per_pair_force(
            tables, a.r, static_cast<int>(a.type), a.rho,
            [&](auto&& v) { lnl.for_each_neighbor_of_runaway(ri, host, v); });
        ++n_runaway;
        if (!(f == a.f)) ++bad;
      });
      for (std::size_t idx = 0; idx < lnl.size(); ++idx) {
        if (lnl.is_owned(idx)) continue;
        for (std::int32_t ri = lnl.entry(idx).runaway_head;
             ri != lat::AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
          if (lnl.runaway(ri).rho > 0.0) ++n_ghost_chain;
        }
      }
    }
    std::lock_guard lk(m);
    compared += n;
    mismatches += bad;
    runaways_compared += n_runaway;
    ghost_chain_nodes += n_ghost_chain;
  });
  EXPECT_EQ(compared, static_cast<std::size_t>(kSteps * setup.geo.num_sites()) -
                          runaways_compared)
      << "every atom is either an owned entry or an owned run-away";
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(runaways_compared, 0u);
  EXPECT_GT(ghost_chain_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReferenceForceOracle,
                         ::testing::Values(1, 2, 4));

TEST(ReferenceForce, PotentialEnergyDeterministicAcrossRuns) {
  Crystal x;
  double e1 = 0, e2 = 0;
  for (double* e : {&e1, &e2}) {
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                   x.cfg.cutoff + kNeighborSkin);
      lnl.fill_perfect(lat::Species::Fe);
      lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
      *e = energy_of(x, lnl, ghosts, comm);
    });
  }
  EXPECT_EQ(e1, e2);
}

}  // namespace
}  // namespace mmd::md
