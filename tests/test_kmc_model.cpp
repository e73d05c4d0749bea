#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/world.h"
#include "kmc/engine.h"
#include "kmc/model.h"
#include "util/rng.h"

namespace mmd::kmc {
namespace {

KmcConfig small_config() {
  KmcConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.table_segments = 500;
  return cfg;
}

struct Rig {
  KmcConfig cfg;
  lat::BccGeometry geo;
  lat::DomainDecomposition dd;
  pot::EamTableSet tables;

  Rig(const KmcConfig& c, int nranks)
      : cfg(c),
        geo(c.nx, c.ny, c.nz, c.lattice_constant),
        dd(geo, nranks,
           lat::required_halo_cells(c.lattice_constant, c.cutoff) + 1),
        tables(pot::EamTableSet::build(
            pot::EamModel::iron(c.lattice_constant, c.cutoff), c.table_segments)) {}
};

TEST(RealTimeScale, MatchesPaperNumbers) {
  // Paper §3: t_threshold = 2e-4, C_MC = 2e-6, T = 600 K yields 19.2 days.
  // With the inverted formation energy E_v+ = 1.86 eV (see util/units.h) the
  // formula lands on the paper's figure.
  const double t_real = real_time_scale(2.0e-4, 2.0e-6, 600.0);
  const double days = t_real / 86400.0;
  EXPECT_GT(days, 15.0);
  EXPECT_LT(days, 25.0);
  // And the exact formula: C_real = exp(-E_v+ / (kB * 600)).
  const double c_real = std::exp(-util::iron::kVacancyFormationEnergy /
                                 (8.617333262e-5 * 600.0));
  EXPECT_NEAR(t_real, 2.0e-4 * 2.0e-6 / c_real, 1e-9 * t_real);
}

TEST(KmcModel, InitialStateAllIron) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  EXPECT_EQ(m.count_owned_vacancies(), 0u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.state(i), SiteState::Fe);
  }
}

TEST(KmcModel, EightNearestNeighborEvents) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  EXPECT_EQ(m.nn_offsets(0).size(), 8u);
  EXPECT_EQ(m.nn_offsets(1).size(), 8u);
}

TEST(KmcModel, ImagesCoverWrappedCopies) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  // Single-rank box: a border site has ghost images on the far side.
  const std::int64_t gid = rig.geo.site_id({0, 0, 0, 0});
  std::vector<std::size_t> images;
  m.images_of_global(gid, images);
  EXPECT_GE(images.size(), 8u);  // 2 reps per axis
  for (std::size_t i : images) {
    EXPECT_EQ(m.site_rank_of(i), gid);
  }
}

TEST(KmcModel, SetStateGlobalKeepsImagesCoherent) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const std::int64_t gid = rig.geo.site_id({0, 0, 0, 1});
  m.set_state_global(gid, SiteState::Vacancy);
  std::vector<std::size_t> images;
  m.images_of_global(gid, images);
  for (std::size_t i : images) {
    EXPECT_EQ(m.state(i), SiteState::Vacancy);
  }
  EXPECT_EQ(m.count_owned_vacancies(), 1u);
}

TEST(KmcModel, SameValueWriteJournalsNothing) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const std::size_t idx = m.owned_indices()[5];
  m.set_state(idx, SiteState::Fe);
  m.set_state_global(rig.geo.site_id({0, 0, 0, 0}), SiteState::Fe);
  EXPECT_TRUE(m.flips().empty());
  m.set_state(idx, SiteState::Vacancy);
  m.set_state(idx, SiteState::Vacancy);
  EXPECT_EQ(m.flips(), std::vector<std::size_t>{idx});
  m.clear_flips();
  EXPECT_TRUE(m.flips().empty());
}

TEST(KmcModel, SetStateGlobalJournalsEveryChangedImageOnce) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  // Single-rank box: a corner site has images across every periodic wrap.
  const std::int64_t gid = rig.geo.site_id({0, 0, 0, 0});
  std::vector<std::size_t> images;
  m.images_of_global(gid, images);
  ASSERT_GE(images.size(), 2u);
  // One image already holds the new state, so only the others change.
  m.set_state(images[0], SiteState::Vacancy);
  m.clear_flips();
  m.set_state_global(gid, SiteState::Vacancy);
  std::vector<std::size_t> journaled = m.flips();
  std::sort(journaled.begin(), journaled.end());
  std::vector<std::size_t> changed(images.begin() + 1, images.end());
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(journaled, changed);
}

TEST(KmcModel, JournalEmptyAfterInitializeAndRestore) {
  Rig rig(small_config(), 1);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    KmcEngine engine(rig.cfg, rig.geo, rig.dd, rig.tables, 0,
                     GhostStrategy::Traditional);
    const std::vector<std::int64_t> vacancies{rig.geo.site_id({0, 0, 0, 0}),
                                              rig.geo.site_id({3, 4, 5, 1})};
    engine.initialize_sites(comm, vacancies);
    EXPECT_TRUE(engine.model().flips().empty());
    // A checkpoint read writes owned sites before restore_state.
    engine.model().set_state(engine.model().owned_indices()[7],
                             SiteState::Vacancy);
    ASSERT_FALSE(engine.model().flips().empty());
    engine.restore_state(comm, engine.engine_state());
    EXPECT_TRUE(engine.model().flips().empty());
    engine.initialize_random(comm, 0.05);
    EXPECT_TRUE(engine.model().flips().empty());
  });
}

TEST(KmcModel, RhoAtPerfectLatticeMatchesCalibration) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const pot::EamModel fe = pot::EamModel::iron(rig.cfg.lattice_constant, rig.cfg.cutoff);
  const std::size_t center = m.index_of_local({4, 4, 4, 0});
  EXPECT_NEAR(m.rho_at(center), fe.perfect_rho(0, rig.cfg.lattice_constant), 1e-4);
}

TEST(KmcModel, VacancyLowersNeighborRho) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const std::size_t center = m.index_of_local({4, 4, 4, 0});
  const double rho0 = m.rho_at(center);
  // Remove a 1NN atom.
  m.set_state_global(rig.geo.site_id({4, 4, 4, 1}), SiteState::Vacancy);
  EXPECT_LT(m.rho_at(center), rho0);
}

TEST(KmcModel, EnergeticsRejectStencilsLeavingStorage) {
  // The energetics walk flat deltas, valid only where the whole cutoff
  // stencil lies in storage: owned sites and their halo 1NN partners. A
  // site on the storage edge is refused with an exception naming it.
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const int h = m.box().halo;
  EXPECT_NO_THROW(m.rho_at(m.index_of_local({-1, 0, 0, 1})));
  EXPECT_NO_THROW(m.exchange_dE(m.index_of_local({0, 0, 0, 0}),
                                m.index_of_local({-1, -1, -1, 1})));
  const std::size_t edge = m.index_of_local({-h, 0, 0, 0});
  try {
    m.rho_at(edge);
    ADD_FAILURE() << "rho_at accepted a stencil that leaves storage";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(edge)), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(m.pair_energy_at(edge, static_cast<std::size_t>(-1)),
               std::out_of_range);
}

TEST(KmcModel, RateFollowsArrhenius) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const double kT = 8.617333262e-5 * rig.cfg.temperature;
  EXPECT_NEAR(m.rate(0.0),
              rig.cfg.prefactor * std::exp(-rig.cfg.migration_barrier / kT),
              1e-6 * m.rate(0.0));
  // Uphill exchanges are slower, downhill faster.
  EXPECT_LT(m.rate(0.4), m.rate(0.0));
  EXPECT_GT(m.rate(-0.4), m.rate(0.0));
  // Barrier clamp: extremely downhill events saturate.
  EXPECT_NEAR(m.rate(-100.0),
              rig.cfg.prefactor * std::exp(-rig.cfg.min_barrier / kT),
              1e-6 * m.rate(-100.0));
}

TEST(KmcModel, ExchangeDeSymmetricInBulk) {
  // Moving an atom into an isolated vacancy and the reverse move have
  // opposite energy changes (detailed-balance consistency).
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const std::size_t vac = m.index_of_local({4, 4, 4, 0});
  const std::size_t atom = m.index_of_local({4, 4, 4, 1});
  m.set_state_global(m.site_rank_of(vac), SiteState::Vacancy);
  const double dE_fwd = m.exchange_dE(vac, atom);
  // Execute the swap.
  m.set_state_global(m.site_rank_of(vac), SiteState::Fe);
  m.set_state_global(m.site_rank_of(atom), SiteState::Vacancy);
  const double dE_rev = m.exchange_dE(atom, vac);
  EXPECT_NEAR(dE_fwd + dE_rev, 0.0, 1e-9);
}

TEST(KmcModel, IsolatedVacancyHopIsNeutral) {
  // In a perfect crystal all 8 hop destinations are equivalent: dE ~ 0.
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const std::size_t vac = m.index_of_local({4, 4, 4, 0});
  m.set_state_global(m.site_rank_of(vac), SiteState::Vacancy);
  const auto& box = m.box();
  const auto c = box.coord_of(vac);
  for (const auto& o : m.nn_offsets(c.sub)) {
    const std::size_t nb =
        box.entry_index({c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub});
    EXPECT_NEAR(m.exchange_dE(vac, nb), 0.0, 1e-9);
  }
}

TEST(KmcModel, DivacancyBindingAffectsDe) {
  // A hop that separates two adjacent vacancies should differ energetically
  // from a hop within a perfect region.
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  const std::size_t v1 = m.index_of_local({4, 4, 4, 0});
  const std::size_t v2 = m.index_of_local({4, 4, 4, 1});
  m.set_state_global(m.site_rank_of(v1), SiteState::Vacancy);
  m.set_state_global(m.site_rank_of(v2), SiteState::Vacancy);
  // Hop candidate: v1 exchanges with a far-side atom neighbor.
  const auto c = m.box().coord_of(v1);
  double dE_any = 0.0;
  for (const auto& o : m.nn_offsets(c.sub)) {
    const std::size_t nb =
        m.box().entry_index({c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub});
    if (m.state(nb) == SiteState::Vacancy) continue;
    dE_any = m.exchange_dE(v1, nb);
    break;
  }
  EXPECT_GT(std::abs(dE_any), 1e-6);
}

/// Bitwise, unless the build contracts a*b+c into FMA (e.g.
/// -march=x86-64-v3), where differently inlined call sites may round
/// differently (as in test_eam.cpp).
bool differs(double a, double b) {
#if defined(__FMA__)
  return std::abs(a - b) > 1e-12 * std::max(1.0, std::abs(b));
#else
  return a != b;
#endif
}

TEST(KmcModel, ExchangeDeMatchesPerCentreWalksBitwise) {
  // exchange_dE walks each centre's stencil once; the per-centre walks it
  // replaced are rebuilt here from public pieces: embed(rho_at) plus
  // pair_energy_at at each centre, and the partner's own density term
  // (f(t, t) at its stencil slot) taken off the new host density. Every
  // owned vacancy–1NN pair of a random configuration on rank 1 of 2, for Fe
  // and Fe–Cu, covering ghost partners and partners next to other vacancies.
  KmcConfig cfg = small_config();
  const int kRanks = 2;
  const lat::BccGeometry geo(cfg.nx, cfg.ny, cfg.nz, cfg.lattice_constant);
  const lat::DomainDecomposition dd(
      geo, kRanks, lat::required_halo_cells(cfg.lattice_constant, cfg.cutoff) + 1);
  const pot::EamTableSet fe = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);
  const pot::EamTableSet fecu = pot::EamTableSet::build(
      pot::EamModel::iron_copper(cfg.lattice_constant, cfg.cutoff),
      cfg.table_segments);
  for (const double cu_fraction : {0.0, 0.2}) {
    const pot::EamTableSet& tables = cu_fraction > 0.0 ? fecu : fe;
    KmcModel m(cfg, geo, dd, tables, 1);
    // States per global site, so every image of a site agrees.
    const util::Rng site_rng(7);
    for (std::size_t i = 0; i < m.size(); ++i) {
      util::Rng r = site_rng.split(static_cast<std::uint64_t>(m.site_rank_of(i)));
      SiteState st = SiteState::Fe;
      if (r.uniform() < 0.08) {
        st = SiteState::Vacancy;
      } else if (r.uniform() < cu_fraction) {
        st = SiteState::Cu;
      }
      m.set_state(i, st);
    }
    const lat::LocalBox& box = m.box();
    int pairs = 0, ghost_partners = 0, crowded_partners = 0, cu_partners = 0;
    for (const std::size_t vac : m.owned_indices()) {
      if (m.state(vac) != SiteState::Vacancy) continue;
      const lat::LocalCoord cv = box.coord_of(vac);
      const auto& deltas = m.cutoff_deltas(cv.sub);
      for (const auto& o : m.nn_offsets(cv.sub)) {
        const std::size_t nb =
            box.entry_index({cv.x + o.dx, cv.y + o.dy, cv.z + o.dz, o.to_sub});
        if (!is_atom(m.state(nb))) continue;
        const int t = static_cast<int>(m.state(nb));
        const auto& embed = tables.embed_of(t);
        const double e_before = embed.value(m.rho_at(nb, t)) +
                                m.pair_energy_at(nb, static_cast<std::size_t>(-1), t);
        double rho_corr = 0.0;
        for (std::size_t k = 0; k < deltas.size(); ++k) {
          if (vac + static_cast<std::size_t>(deltas[k]) == nb) {
            rho_corr =
                tables.f(t, t).value(std::sqrt(m.cutoff_offsets(cv.sub)[k].dist2));
            break;
          }
        }
        const double e_after = embed.value(m.rho_at(vac, t) - rho_corr) +
                               m.pair_energy_at(vac, nb, t);
        const double dE = m.exchange_dE(vac, nb);
        EXPECT_FALSE(differs(dE, e_after - e_before))
            << "vac " << vac << " partner " << nb << ": " << dE << " vs "
            << e_after - e_before;
        ++pairs;
        if (!m.is_owned(nb)) ++ghost_partners;
        if (t == static_cast<int>(SiteState::Cu)) ++cu_partners;
        const auto& nb_deltas = m.cutoff_deltas(box.coord_of(nb).sub);
        for (const std::int64_t d : nb_deltas) {
          const std::size_t other = nb + static_cast<std::size_t>(d);
          if (other != vac && m.state(other) == SiteState::Vacancy) {
            ++crowded_partners;
            break;
          }
        }
      }
    }
    EXPECT_GT(pairs, 100) << "Cu fraction " << cu_fraction;
    EXPECT_GT(ghost_partners, 0);
    EXPECT_GT(crowded_partners, 0);
    EXPECT_EQ(cu_partners > 0, cu_fraction > 0.0);
  }
}

TEST(KmcModel, MemoryIsOneBytePerSitePlusTables) {
  Rig rig(small_config(), 1);
  KmcModel m(rig.cfg, rig.geo, rig.dd, rig.tables, 0);
  EXPECT_LT(m.memory_bytes(), m.size() * 2 + (1u << 20));
}

TEST(KmcModel, ThrowsWhenHaloTooSmall) {
  KmcConfig cfg = small_config();
  lat::BccGeometry geo(cfg.nx, cfg.ny, cfg.nz, cfg.lattice_constant);
  lat::DomainDecomposition dd(geo, 1, 1);  // halo 1 < required
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), 200);
  EXPECT_THROW(KmcModel(cfg, geo, dd, tables, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mmd::kmc
