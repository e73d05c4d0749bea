#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "io/xyz.h"
#include "kmc/engine.h"
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

/// A 6-cube KMC box split over two ranks: the models an epoch blob is
/// written from and read back into.
struct TwoRankKmc {
  kmc::KmcConfig cfg = [] {
    kmc::KmcConfig c;
    c.nx = c.ny = c.nz = 6;
    c.table_segments = 200;
    return c;
  }();
  kmc::KmcSetup setup{cfg, 2};
  pot::EamTableSet tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff),
      cfg.table_segments);

  kmc::KmcModel model(int rank) const {
    return kmc::KmcModel(cfg, setup.geo, setup.dd, tables, rank);
  }
};

const TwoRankKmc& two_rank_kmc() {
  static const TwoRankKmc box;
  return box;
}

/// The MD->KMC census of a rank: three of its owned sites, each made a
/// vacancy on `model` too.
Checkpoint::Census census_of(kmc::KmcModel& model) {
  Checkpoint::Census census;
  census.md_defects = {3456, 3, 2};
  for (const std::size_t k : {0u, 7u, 100u}) {
    const std::size_t idx = model.owned_indices()[k];
    model.set_state(idx, kmc::SiteState::Vacancy);
    census.vacancy_sites.push_back(model.site_rank_of(idx));
  }
  return census;
}

/// A whole v4 epoch of `model`'s rank: META, CENSUS and KMC sections.
std::string epoch_blob(const kmc::KmcModel& model,
                       const Checkpoint::Census& census) {
  Checkpoint::MetaState meta;
  meta.rank = model.rank();
  meta.nranks = 2;
  meta.seed = 42;
  meta.md_time_ps = 0.03;
  meta.kmc.cycles = 4;
  meta.stage_tag = "sampling";
  std::ostringstream os;
  Checkpoint::write_file_header(os);
  Checkpoint::write_meta_section(os, meta);
  Checkpoint::write_census_section(os, model, census);
  Checkpoint::write_kmc_section(os, model, 1.5e-4);
  return os.str();
}

/// Rank 1's epoch of the two-rank box.
std::string rank1_epoch() {
  kmc::KmcModel model = two_rank_kmc().model(1);
  const Checkpoint::Census census = census_of(model);
  return epoch_blob(model, census);
}

/// Reads an epoch blob the way KmcStage::resume does; returns its census.
Checkpoint::Census load_epoch(const std::string& blob, kmc::KmcModel& model) {
  std::istringstream is(blob);
  Checkpoint::read_file_header(is);
  Checkpoint::read_meta_section(is);
  Checkpoint::Census census = Checkpoint::read_census_section(is, model);
  Checkpoint::read_kmc_section(is, model);
  return census;
}

/// The message of the error load_epoch throws, or "" when it throws none.
std::string load_error(const std::string& blob, kmc::KmcModel& model) {
  try {
    load_epoch(blob, model);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void patch_u32(std::string& blob, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    blob[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

void patch_u64(std::string& blob, std::size_t off, std::uint64_t v) {
  patch_u32(blob, off, static_cast<std::uint32_t>(v));
  patch_u32(blob, off + 4, static_cast<std::uint32_t>(v >> 32));
}

// v4 epoch layout: file header 8 B (version @4); the META section (kind,
// length @+4, crc @+12, payload @+16), 124 B in all with the "sampling" tag
// (MetaSectionRoundTripsAndKeepsV3Layout pins it); then the CENSUS section,
// whose payload is 9*i32 geometry, 3*u64 defect counts, u64 vacancy count
// and one i64 site rank per vacancy.
constexpr std::size_t kCensusOff = 8 + 124;
constexpr std::size_t kCensusCrcOff = kCensusOff + 12;
constexpr std::size_t kCensusPayloadOff = kCensusOff + 16;
constexpr std::size_t kCensusPayloadBytes = 36 + 24 + 8 + 3 * 8;
constexpr std::size_t kVacancyCountOff = kCensusPayloadOff + 36 + 24;
constexpr std::size_t kFirstSiteOff = kVacancyCountOff + 8;

/// Recompute the CENSUS section's CRC after a payload patch, so only the
/// reader's own checks stand between the forged field and the run.
void reseal_census(std::string& blob) {
  patch_u32(blob, kCensusCrcOff,
            util::crc32(blob.substr(kCensusPayloadOff, kCensusPayloadBytes)));
}

}  // namespace

TEST(Checkpoint, CensusRoundTrip) {
  // Every rank's census comes back field for field, next to its KMC sites.
  const TwoRankKmc& box = two_rank_kmc();
  for (int rank = 0; rank < 2; ++rank) {
    kmc::KmcModel model = box.model(rank);
    const Checkpoint::Census census = census_of(model);
    kmc::KmcModel restored = box.model(rank);
    const Checkpoint::Census back =
        load_epoch(epoch_blob(model, census), restored);
    EXPECT_EQ(back.md_defects.atoms, census.md_defects.atoms);
    EXPECT_EQ(back.md_defects.vacancies, census.md_defects.vacancies);
    EXPECT_EQ(back.md_defects.interstitials, census.md_defects.interstitials);
    EXPECT_EQ(back.vacancy_sites, census.vacancy_sites) << "rank " << rank;
    EXPECT_EQ(restored.count_owned_vacancies(), 3u) << "rank " << rank;
  }
}

TEST(Checkpoint, EpochRejectsWrongGeometry) {
  // Rank 1's epoch read into rank 0's model: the geometry prefix differs.
  kmc::KmcModel rank0 = two_rank_kmc().model(0);
  EXPECT_NE(load_error(rank1_epoch(), rank0).find("geometry"),
            std::string::npos);
}

TEST(Checkpoint, RejectsCorruptHeader) {
  kmc::KmcModel model = two_rank_kmc().model(1);
  EXPECT_THROW(load_epoch("garbage data that is not a checkpoint", model),
               std::runtime_error);
}

TEST(Checkpoint, BlobsAreByteDeterministic) {
  // Explicit field serialization: no struct padding reaches the stream, so
  // two saves of the same state are identical (and CRCs are stable).
  EXPECT_EQ(rank1_epoch(), rank1_epoch());
}

TEST(Checkpoint, TruncationRejectedAtAnyLength) {
  const std::string blob = rank1_epoch();
  kmc::KmcModel model = two_rank_kmc().model(1);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(load_epoch(blob.substr(0, len), model), std::runtime_error)
        << "truncation at byte " << len << " was not rejected";
  }
}

TEST(Checkpoint, BitFlipAnywhereInPayloadRejected) {
  // Every byte after the file header: section headers and payloads alike.
  const std::string blob = rank1_epoch();
  kmc::KmcModel model = two_rank_kmc().model(1);
  for (std::size_t off = 8; off < blob.size(); ++off) {
    std::string bad = blob;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    EXPECT_THROW(load_epoch(bad, model), std::runtime_error)
        << "bit flip at byte " << off << " was not rejected";
  }
}

TEST(Checkpoint, OversizedVacancyCountRejectedBeforeAllocation) {
  // A corrupt vacancy count must be bounded against the bytes actually
  // present, not fed to a vector resize. Forge a census whose CRC is valid
  // but whose count claims 2^60 sites.
  std::string blob = rank1_epoch();
  patch_u64(blob, kVacancyCountOff, 1ull << 60);
  reseal_census(blob);
  kmc::KmcModel model = two_rank_kmc().model(1);
  const std::string error = load_error(blob, model);
  EXPECT_NE(error.find("vacancy count"), std::string::npos) << error;
}

TEST(Checkpoint, VacancySiteOutsideOwnedBoxRejected) {
  // A census site that rank 1 does not own: one of rank 0's sites, and two
  // outside the lattice.
  const TwoRankKmc& box = two_rank_kmc();
  const kmc::KmcModel rank0 = box.model(0);
  const std::int64_t foreign[] = {
      rank0.site_rank_of(rank0.owned_indices()[5]), -1,
      box.setup.geo.num_sites()};
  for (const std::int64_t site : foreign) {
    std::string blob = rank1_epoch();
    patch_u64(blob, kFirstSiteOff, static_cast<std::uint64_t>(site));
    reseal_census(blob);
    kmc::KmcModel model = box.model(1);
    const std::string error = load_error(blob, model);
    EXPECT_NE(error.find("not an owned site"), std::string::npos)
        << "site " << site << ": " << error;
  }
}

TEST(Checkpoint, OversizedSectionLengthRejected) {
  // Claim 1 TiB in the META and in the CENSUS section length (u64 @+4).
  for (const std::size_t section : {std::size_t{8}, kCensusOff}) {
    std::string blob = rank1_epoch();
    patch_u64(blob, section + 4, 1ull << 40);
    kmc::KmcModel model = two_rank_kmc().model(1);
    const std::string error = load_error(blob, model);
    EXPECT_NE(error.find("section length"), std::string::npos) << error;
  }
}

TEST(Checkpoint, Version1RejectedWithMigrationMessage) {
  std::string blob = rank1_epoch();
  patch_u32(blob, 4, 1u);  // version field
  kmc::KmcModel model = two_rank_kmc().model(1);
  const std::string error = load_error(blob, model);
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

TEST(Checkpoint, Version3RejectedWithRegenerateMessage) {
  // A v3 epoch carries the frozen MD lattice instead of the census.
  std::string blob = rank1_epoch();
  patch_u32(blob, 4, 3u);
  kmc::KmcModel model = two_rank_kmc().model(1);
  const std::string error = load_error(blob, model);
  EXPECT_NE(error.find("version 3"), std::string::npos) << error;
  EXPECT_NE(error.find("re-generate"), std::string::npos) << error;
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
  // An epoch starts with META, not the KMC section a save_kmc file holds,
  // and the other way round.
  kmc::KmcModel model = two_rank_kmc().model(1);
  std::istringstream epoch(rank1_epoch());
  try {
    Checkpoint::load_kmc(epoch, model);
    FAIL() << "an epoch was read as a KMC file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wrong checkpoint kind"),
              std::string::npos)
        << e.what();
  }
  std::ostringstream os;
  Checkpoint::save_kmc(os, model, 0.0);
  EXPECT_NE(load_error(os.str(), model).find("wrong checkpoint kind"),
            std::string::npos);
}

}  // namespace
}  // namespace mmd::io
