#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "io/xyz.h"
#include "md/engine.h"
#include "util/crc32.h"

namespace mmd::io {
namespace {

constexpr double kA = 2.855;

TEST(Xyz, SpeciesSymbols) {
  EXPECT_STREQ(species_symbol(-1), "X");
  EXPECT_STREQ(species_symbol(0), "Fe");
  EXPECT_STREQ(species_symbol(1), "Cu");
}

TEST(Xyz, FrameFormat) {
  lat::BccGeometry g(3, 3, 3, kA);
  lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
  lnl.fill_perfect(lat::Species::Fe);
  std::ostringstream os;
  XyzWriter writer;
  writer.write_frame(os, lnl, 1.25);
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "54");  // 2 * 27 atoms
  std::getline(is, line);
  EXPECT_NE(line.find("Lattice="), std::string::npos);
  EXPECT_NE(line.find("Time=1.25"), std::string::npos);
  std::getline(is, line);
  EXPECT_EQ(line.rfind("Fe ", 0), 0u);
}

TEST(Xyz, VacanciesAndRunawaysMarked) {
  lat::BccGeometry g(3, 3, 3, kA);
  lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
  lnl.fill_perfect(lat::Species::Fe);
  lnl.detach(lnl.box().entry_index({1, 1, 1, 0}));
  std::ostringstream os;
  XyzWriter writer;
  writer.write_frame(os, lnl);
  const std::string s = os.str();
  EXPECT_NE(s.find("\nX "), std::string::npos);       // the vacancy
  EXPECT_NE(s.find(" 1\n"), std::string::npos);       // a run-away flag
  // Count line says 54 + 1 pseudo-atom: 54 atoms(incl runaway) + 1 vacancy.
  EXPECT_EQ(s.substr(0, s.find('\n')), "55");
}

TEST(Xyz, VacancyExclusionOption) {
  lat::BccGeometry g(3, 3, 3, kA);
  lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
  lnl.fill_perfect(lat::Species::Fe);
  lnl.detach(lnl.box().entry_index({1, 1, 1, 0}));
  XyzWriter::Options opts;
  opts.include_vacancies = false;
  std::ostringstream os;
  XyzWriter(opts).write_frame(os, lnl);
  EXPECT_EQ(os.str().substr(0, os.str().find('\n')), "54");
}

TEST(Xyz, GlobalGatherWritesAllRanks) {
  lat::BccGeometry g(8, 8, 8, kA);
  lat::DomainDecomposition dd(g, 4, 2);
  std::ostringstream os;
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(g, dd.local_box(comm.rank()), 5.0);
    lnl.fill_perfect(lat::Species::Fe);
    XyzWriter writer;
    writer.write_frame_global(os, comm, lnl, 0.0);
  });
  EXPECT_EQ(os.str().substr(0, os.str().find('\n')), "1024");
}

TEST(Xyz, KmcSites) {
  kmc::KmcConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.table_segments = 200;
  lat::BccGeometry geo(6, 6, 6, kA);
  lat::DomainDecomposition dd(geo, 1, 3);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), 200);
  kmc::KmcModel model(cfg, geo, dd, tables, 0);
  model.set_state_global(0, kmc::SiteState::Vacancy);
  std::ostringstream os;
  XyzWriter().write_sites(os, model);
  EXPECT_EQ(os.str().substr(0, os.str().find('\n')), "432");
  EXPECT_NE(os.str().find("\nX "), std::string::npos);
}

TEST(Checkpoint, MdRoundTrip) {
  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.temperature = 300.0;
  cfg.table_segments = 400;
  const md::MdSetup setup(cfg, 1);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);
  std::string blob;
  std::vector<util::Vec3> expected_r, expected_v;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 3);
    // Make a defect so the run-away pool round-trips too.
    auto& lnl = engine.lattice();
    const std::size_t idx = lnl.box().entry_index({3, 3, 3, 0});
    lnl.entry(idx).r += util::Vec3{0.4, 0.3, 0.1};
    lnl.detach(idx);
    std::ostringstream os;
    Checkpoint::save_md(os, lnl, engine.simulated_time());
    blob = os.str();
    for (std::size_t i : lnl.owned_indices()) {
      expected_r.push_back(lnl.entry(i).r);
      expected_v.push_back(lnl.entry(i).v);
    }
  });
  // Restore into a fresh lattice.
  lat::LatticeNeighborList restored(setup.geo, setup.dd.local_box(0),
                                    cfg.cutoff + md::kNeighborSkin);
  std::istringstream is(blob);
  const double t = Checkpoint::load_md(is, restored);
  EXPECT_GT(t, 0.0);
  std::size_t k = 0;
  for (std::size_t i : restored.owned_indices()) {
    EXPECT_EQ(restored.entry(i).r, expected_r[k]);
    EXPECT_EQ(restored.entry(i).v, expected_v[k]);
    ++k;
  }
  EXPECT_EQ(restored.count_owned_vacancies(), 1u);
  EXPECT_EQ(restored.count_owned_runaways(), 1u);
}

TEST(Checkpoint, MdRejectsWrongGeometry) {
  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.table_segments = 300;
  const md::MdSetup setup(cfg, 1);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);
  std::string blob;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
    engine.initialize(comm);
    std::ostringstream os;
    Checkpoint::save_md(os, engine.lattice(), 0.0);
    blob = os.str();
  });
  lat::BccGeometry other(8, 8, 8, cfg.lattice_constant);
  lat::LatticeNeighborList wrong(other, lat::LocalBox{0, 0, 0, 8, 8, 8, 2}, 5.0);
  std::istringstream is(blob);
  EXPECT_THROW(Checkpoint::load_md(is, wrong), std::runtime_error);
}

TEST(Checkpoint, RejectsCorruptHeader) {
  std::istringstream is(std::string("garbage data that is not a checkpoint"));
  lat::BccGeometry g(4, 4, 4, kA);
  lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 4, 4, 4, 2}, 5.0);
  EXPECT_THROW(Checkpoint::load_md(is, lnl), std::runtime_error);
}

TEST(Checkpoint, KmcRoundTrip) {
  kmc::KmcConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.table_segments = 200;
  lat::BccGeometry geo(8, 8, 8, cfg.lattice_constant);
  lat::DomainDecomposition dd(geo, 1, 3);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), 200);
  kmc::KmcModel model(cfg, geo, dd, tables, 0);
  model.set_state_global(17, kmc::SiteState::Vacancy);
  model.set_state_global(333, kmc::SiteState::Cu);
  std::ostringstream os;
  Checkpoint::save_kmc(os, model, 1.5e-4);
  kmc::KmcModel restored(cfg, geo, dd, tables, 0);
  std::istringstream is(os.str());
  EXPECT_DOUBLE_EQ(Checkpoint::load_kmc(is, restored), 1.5e-4);
  EXPECT_EQ(restored.count_owned_vacancies(), 1u);
  std::vector<std::size_t> images;
  restored.images_of_global(333, images);
  bool found_cu = false;
  for (std::size_t i : images) {
    if (restored.is_owned(i)) found_cu = restored.state(i) == kmc::SiteState::Cu;
  }
  EXPECT_TRUE(found_cu);
}

namespace {

/// A small lattice with a vacancy and a two-atom run-away chain, serialized.
std::string md_blob(const lat::BccGeometry& g, const lat::LocalBox& box) {
  lat::LatticeNeighborList lnl(g, box, 5.0);
  lnl.fill_perfect(lat::Species::Fe);
  const std::size_t host = lnl.box().entry_index({1, 1, 1, 0});
  lnl.entry(host).r += util::Vec3{0.4, 0.2, 0.1};
  lnl.detach(host);
  lat::RunawayAtom extra;
  extra.r = {1.0, 2.0, 3.0};
  extra.v = {0.1, 0.2, 0.3};
  extra.id = 7;
  lnl.add_runaway(extra, lnl.box().entry_index({2, 2, 2, 1}));
  std::ostringstream os;
  Checkpoint::save_md(os, lnl, 0.5);
  return os.str();
}

std::string md_blob_3cube() {
  lat::BccGeometry g(3, 3, 3, kA);
  return md_blob(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2});
}

void patch_u32(std::string& blob, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    blob[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

// v2 layout: file header 8 B; section kind @8, length @12, crc @20,
// payload @24. MD payload: 9*i32 geometry, f64 time, u64 count, then
// records of 90 B + u32 chain_len (+ chain).
constexpr std::size_t kPayloadOff = 24;
constexpr std::size_t kSectionCrcOff = 20;
constexpr std::size_t kFirstChainLenOff = kPayloadOff + 36 + 8 + 8 + 90;

}  // namespace

TEST(Checkpoint, BlobsAreByteDeterministic) {
  // Explicit field serialization: no struct padding reaches the stream, so
  // two saves of the same state are identical (and CRCs are stable).
  EXPECT_EQ(md_blob_3cube(), md_blob_3cube());
}

TEST(Checkpoint, TruncationRejectedAtAnyLength) {
  const std::string blob = md_blob_3cube();
  lat::BccGeometry g(3, 3, 3, kA);
  for (std::size_t len = 0; len < blob.size();
       len += 1 + blob.size() / 97) {
    lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
    std::istringstream is(blob.substr(0, len));
    EXPECT_THROW(Checkpoint::load_md(is, lnl), std::runtime_error)
        << "truncation at byte " << len << " was not rejected";
  }
}

TEST(Checkpoint, BitFlipAnywhereInPayloadRejected) {
  const std::string blob = md_blob_3cube();
  lat::BccGeometry g(3, 3, 3, kA);
  for (std::size_t off = kPayloadOff; off < blob.size();
       off += 1 + blob.size() / 61) {
    std::string bad = blob;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
    std::istringstream is(bad);
    EXPECT_THROW(Checkpoint::load_md(is, lnl), std::runtime_error)
        << "bit flip at byte " << off << " was not rejected";
  }
}

TEST(Checkpoint, OversizedChainLenRejectedBeforeAllocation) {
  // A corrupt chain_len must be bounded against the bytes actually present,
  // not fed to a vector constructor. Forge a blob whose CRC is valid but
  // whose first record claims a multi-GB chain.
  std::string blob = md_blob_3cube();
  patch_u32(blob, kFirstChainLenOff, 0x3FFFFFFFu);
  patch_u32(blob, kSectionCrcOff, util::crc32(blob.substr(kPayloadOff)));
  lat::BccGeometry g(3, 3, 3, kA);
  lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
  std::istringstream is(blob);
  try {
    Checkpoint::load_md(is, lnl);
    FAIL() << "oversized chain_len was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("chain length"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, OversizedSectionLengthRejected) {
  std::string blob = md_blob_3cube();
  // Section length field (u64 little-endian at offset 12): claim 1 TiB.
  patch_u32(blob, 12, 0x00000000u);
  patch_u32(blob, 16, 0x00000100u);
  lat::BccGeometry g(3, 3, 3, kA);
  lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
  std::istringstream is(blob);
  EXPECT_THROW(Checkpoint::load_md(is, lnl), std::runtime_error);
}

TEST(Checkpoint, Version1RejectedWithMigrationMessage) {
  std::string blob = md_blob_3cube();
  patch_u32(blob, 4, 1u);  // version field
  lat::BccGeometry g(3, 3, 3, kA);
  lat::LatticeNeighborList lnl(g, lat::LocalBox{0, 0, 0, 3, 3, 3, 2}, 5.0);
  std::istringstream is(blob);
  try {
    Checkpoint::load_md(is, lnl);
    FAIL() << "version 1 blob was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, MultiRankRoundTripWithRunawayChains) {
  // Per-rank files across a 4-rank decomposition, every rank carrying a
  // vacancy and a multi-atom run-away chain; chain order must survive.
  lat::BccGeometry g(8, 8, 8, kA);
  lat::DomainDecomposition dd(g, 4, 2);
  for (int rank = 0; rank < 4; ++rank) {
    lat::LatticeNeighborList lnl(g, dd.local_box(rank), 5.0);
    lnl.fill_perfect(lat::Species::Fe);
    const lat::LocalBox& b = lnl.box();
    // LocalCoord is rank-local: owned cells span [0, l*) on every rank.
    const std::size_t detached = b.entry_index({1, 1, 1, 0});
    lnl.entry(detached).r += util::Vec3{0.5, 0.1, 0.2};
    lnl.detach(detached);
    const std::size_t host = b.entry_index({2, 1, 1, 1});
    for (int k = 0; k < 3; ++k) {
      lat::RunawayAtom a;
      a.r = {1.0 + k, 2.0, 3.0 + rank};
      a.v = {0.1 * k, 0.0, 0.0};
      a.id = 100 * rank + k;
      lnl.add_runaway(a, host);
    }
    std::ostringstream os;
    Checkpoint::save_md(os, lnl, 1.0 + rank);

    // Capture the expected chain (head order) and entry state.
    std::vector<std::int64_t> expected_chain;
    for (std::int32_t ri = lnl.entry(host).runaway_head;
         ri != lat::AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
      expected_chain.push_back(lnl.runaway(ri).id);
    }
    ASSERT_EQ(expected_chain.size(), 3u);

    lat::LatticeNeighborList restored(g, dd.local_box(rank), 5.0);
    std::istringstream is(os.str());
    EXPECT_DOUBLE_EQ(Checkpoint::load_md(is, restored), 1.0 + rank);
    EXPECT_EQ(restored.count_owned_vacancies(), lnl.count_owned_vacancies());
    EXPECT_EQ(restored.count_owned_runaways(), lnl.count_owned_runaways());
    std::vector<std::int64_t> got_chain;
    for (std::int32_t ri = restored.entry(host).runaway_head;
         ri != lat::AtomEntry::kNoRunaway; ri = restored.runaway(ri).next) {
      got_chain.push_back(restored.runaway(ri).id);
    }
    EXPECT_EQ(got_chain, expected_chain) << "rank " << rank;
    for (std::size_t i : restored.owned_indices()) {
      EXPECT_EQ(restored.entry(i).id, lnl.entry(i).id);
      EXPECT_EQ(restored.entry(i).r, lnl.entry(i).r);
      EXPECT_EQ(restored.entry(i).v, lnl.entry(i).v);
    }
  }
}

TEST(Checkpoint, MetaSectionRoundTripsAndKeepsV3Layout) {
  Checkpoint::MetaState meta;
  meta.rank = 3;
  meta.nranks = 7;
  meta.seed = 0x0123456789abcdefull;
  meta.md_time_ps = 1.25;
  meta.kmc.cycles = 41;
  meta.kmc.events = 977;
  meta.kmc.mc_time = 2.5e-6;
  meta.kmc.last_max_rate = 3.75e9;
  meta.kmc.rng_state = 0xfedcba9876543210ull;
  meta.stage_tag = "sampling";
  meta.sample_windows = 12;
  meta.scd_time_s = 4.5e-5;
  meta.sample_est_clusters = 6.125;
  meta.sample_ci_halfwidth = 0.875;
  std::ostringstream os;
  Checkpoint::write_meta_section(os, meta);
  const std::string bytes = os.str();

  std::istringstream is(bytes);
  const Checkpoint::MetaState back = Checkpoint::read_meta_section(is);
  EXPECT_EQ(back.rank, meta.rank);
  EXPECT_EQ(back.nranks, meta.nranks);
  EXPECT_EQ(back.seed, meta.seed);
  EXPECT_EQ(back.md_time_ps, meta.md_time_ps);
  EXPECT_EQ(back.kmc.cycles, meta.kmc.cycles);
  EXPECT_EQ(back.kmc.events, meta.kmc.events);
  EXPECT_EQ(back.kmc.mc_time, meta.kmc.mc_time);
  EXPECT_EQ(back.kmc.last_max_rate, meta.kmc.last_max_rate);
  EXPECT_EQ(back.kmc.rng_state, meta.kmc.rng_state);
  EXPECT_EQ(back.stage_tag, meta.stage_tag);
  EXPECT_EQ(back.sample_windows, meta.sample_windows);
  EXPECT_EQ(back.scd_time_s, meta.scd_time_s);
  EXPECT_EQ(back.sample_est_clusters, meta.sample_est_clusters);
  EXPECT_EQ(back.sample_ci_halfwidth, meta.sample_ci_halfwidth);

  // The v3 field order and widths: any change to either moves the section's
  // size or its CRC-32.
  EXPECT_EQ(bytes.size(), 124u);
  EXPECT_EQ(util::crc32(bytes), 0x48925776u);
}

TEST(Checkpoint, KindMismatchRejected) {
  kmc::KmcConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  lat::BccGeometry geo(6, 6, 6, cfg.lattice_constant);
  lat::DomainDecomposition dd(geo, 1, 3);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), 200);
  kmc::KmcModel model(cfg, geo, dd, tables, 0);
  std::ostringstream os;
  Checkpoint::save_kmc(os, model, 0.0);
  lat::LatticeNeighborList lnl(geo, dd.local_box(0), 5.0);
  std::istringstream is(os.str());
  EXPECT_THROW(Checkpoint::load_md(is, lnl), std::runtime_error);
}

}  // namespace
}  // namespace mmd::io
