#include "io/checkpoint.h"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/byte_io.h"
#include "util/crc32.h"

namespace mmd::io {

namespace {

// Serialized record sizes (fields only — no struct padding).
constexpr std::size_t kEntryBytes = 10 * 8 + 8 + 2;    // r v f rho, id, type
constexpr std::size_t kRunawayBytes = 10 * 8 + 8 + 2;  // same fields
// Length bound for sections read from non-seekable streams, where the real
// remaining byte count cannot be determined.
constexpr std::uint64_t kMaxBlindSectionBytes = 1ull << 28;

void write_u32_stream(std::ostream& os, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  os.write(b, 4);
}

void write_u64_stream(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  os.write(b, 8);
}

std::uint32_t read_u32_stream(std::istream& is, const char* what) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  if (!is) {
    throw std::runtime_error(std::string("Checkpoint: truncated stream (") +
                             what + ")");
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t read_u64_stream(std::istream& is, const char* what) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), 8);
  if (!is) {
    throw std::runtime_error(std::string("Checkpoint: truncated stream (") +
                             what + ")");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

/// Bytes left between the read position and the end of a seekable stream;
/// UINT64_MAX when the stream does not support seeking.
std::uint64_t remaining_stream_bytes(std::istream& is) {
  const auto pos = is.tellg();
  if (pos < 0) return std::numeric_limits<std::uint64_t>::max();
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(pos);
  if (end < pos) return 0;
  return static_cast<std::uint64_t>(end - pos);
}

/// Shared geometry/decomposition prefix of MD and KMC payloads.
struct GeoPrefix {
  std::int32_t nx = 0, ny = 0, nz = 0;
  std::int32_t ox = 0, oy = 0, oz = 0;
  std::int32_t lx = 0, ly = 0, lz = 0;

  static GeoPrefix of(const lat::BccGeometry& geo, const lat::LocalBox& box) {
    return {geo.nx(), geo.ny(), geo.nz(), box.ox, box.oy,
            box.oz,   box.lx,  box.ly,   box.lz};
  }

  void write(ByteWriter& w) const {
    w.put_i32(nx);
    w.put_i32(ny);
    w.put_i32(nz);
    w.put_i32(ox);
    w.put_i32(oy);
    w.put_i32(oz);
    w.put_i32(lx);
    w.put_i32(ly);
    w.put_i32(lz);
  }

  static GeoPrefix read(ByteReader& r) {
    GeoPrefix g;
    g.nx = r.get_i32();
    g.ny = r.get_i32();
    g.nz = r.get_i32();
    g.ox = r.get_i32();
    g.oy = r.get_i32();
    g.oz = r.get_i32();
    g.lx = r.get_i32();
    g.ly = r.get_i32();
    g.lz = r.get_i32();
    return g;
  }

  bool operator==(const GeoPrefix&) const = default;
};

void check_geometry(const GeoPrefix& saved, const lat::BccGeometry& geo,
                    const lat::LocalBox& box) {
  if (saved != GeoPrefix::of(geo, box)) {
    throw std::runtime_error("Checkpoint: geometry/decomposition mismatch");
  }
}

void write_kinematics(ByteWriter& w, const util::Vec3& r, const util::Vec3& v,
                      const util::Vec3& f, double rho, std::int64_t id,
                      lat::Species type) {
  w.put_vec3(r);
  w.put_vec3(v);
  w.put_vec3(f);
  w.put_f64(rho);
  w.put_i64(id);
  w.put_i16(static_cast<std::int16_t>(type));
}

}  // namespace

void Checkpoint::write_file_header(std::ostream& os) {
  write_u32_stream(os, kMagic);
  write_u32_stream(os, kVersion);
}

void Checkpoint::read_file_header(std::istream& is) {
  const std::uint32_t magic = read_u32_stream(is, "magic");
  if (magic != kMagic) throw std::runtime_error("Checkpoint: bad magic");
  const std::uint32_t version = read_u32_stream(is, "version");
  if (version == 1) {
    throw std::runtime_error(
        "Checkpoint: file is format version 1 (raw structs, no CRC). This "
        "build reads only version 3 — re-generate the checkpoint from a "
        "fresh run; v1 files cannot be verified for integrity.");
  }
  if (version == 2) {
    throw std::runtime_error(
        "Checkpoint: file is format version 2 (no stage-schedule META). This "
        "build reads only version 3 — re-generate the checkpoint from a "
        "fresh run; a v2 epoch cannot position the stage pipeline.");
  }
  if (version != kVersion) {
    throw std::runtime_error("Checkpoint: unsupported format version " +
                             std::to_string(version));
  }
}

void Checkpoint::write_section(std::ostream& os, std::uint32_t kind,
                               const std::string& payload) {
  write_u32_stream(os, kind);
  write_u64_stream(os, payload.size());
  write_u32_stream(os, util::crc32(payload));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

std::string Checkpoint::read_section(std::istream& is,
                                     std::uint32_t expected_kind) {
  const std::uint32_t kind = read_u32_stream(is, "section kind");
  if (kind != expected_kind) {
    throw std::runtime_error("Checkpoint: wrong checkpoint kind (section " +
                             std::to_string(kind) + ", expected " +
                             std::to_string(expected_kind) + ")");
  }
  const std::uint64_t len = read_u64_stream(is, "section length");
  const std::uint64_t available = remaining_stream_bytes(is);
  const std::uint64_t bound =
      available == std::numeric_limits<std::uint64_t>::max()
          ? kMaxBlindSectionBytes
          : available;
  if (len > bound) {
    throw std::runtime_error(
        "Checkpoint: section length " + std::to_string(len) +
        " exceeds the " + std::to_string(bound) + " bytes remaining");
  }
  const std::uint32_t crc = read_u32_stream(is, "section crc");
  std::string payload(static_cast<std::size_t>(len), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(len));
  if (!is) throw std::runtime_error("Checkpoint: truncated section payload");
  if (util::crc32(payload) != crc) {
    throw std::runtime_error(
        "Checkpoint: section CRC mismatch (corrupt or tampered data)");
  }
  return payload;
}

void Checkpoint::write_md_section(std::ostream& os,
                                  const lat::LatticeNeighborList& lnl,
                                  double time_ps) {
  ByteWriter w;
  GeoPrefix::of(lnl.geometry(), lnl.box()).write(w);
  w.put_f64(time_ps);
  w.put_u64(lnl.owned_indices().size());
  for (std::size_t idx : lnl.owned_indices()) {
    const lat::AtomEntry& e = lnl.entry(idx);
    write_kinematics(w, e.r, e.v, e.f, e.rho, e.id, e.type);
    // The run-away chain is written inline, head first; `runaway_head` and
    // the pool links are rebuilt at load.
    std::uint32_t chain_len = 0;
    for (std::int32_t ri = e.runaway_head; ri != lat::AtomEntry::kNoRunaway;
         ri = lnl.runaway(ri).next) {
      ++chain_len;
    }
    w.put_u32(chain_len);
    for (std::int32_t ri = e.runaway_head; ri != lat::AtomEntry::kNoRunaway;
         ri = lnl.runaway(ri).next) {
      const lat::RunawayAtom& a = lnl.runaway(ri);
      write_kinematics(w, a.r, a.v, a.f, a.rho, a.id, a.type);
    }
  }
  write_section(os, kKindMd, w.str());
}

double Checkpoint::read_md_section(std::istream& is,
                                   lat::LatticeNeighborList& lnl) {
  const std::string payload = read_section(is, kKindMd);
  ByteReader r(payload);
  check_geometry(GeoPrefix::read(r), lnl.geometry(), lnl.box());
  const double time_ps = r.get_f64();
  const std::uint64_t count = r.get_u64();
  if (count != lnl.owned_indices().size()) {
    throw std::runtime_error("Checkpoint: owned-entry count mismatch");
  }
  // Reset everything (also clears the run-away pool), then repopulate.
  lnl.fill_perfect(lat::Species::Fe);
  lnl.clear_ghosts();
  std::vector<lat::RunawayAtom> chain;
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry e;
    e.r = r.get_vec3();
    e.v = r.get_vec3();
    e.f = r.get_vec3();
    e.rho = r.get_f64();
    e.id = r.get_i64();
    e.type = static_cast<lat::Species>(r.get_i16());
    e.runaway_head = lat::AtomEntry::kNoRunaway;
    lnl.entry(idx) = e;
    const std::uint32_t chain_len = r.get_u32();
    // A corrupt length must not drive the allocation below: bound it by the
    // records that can actually still be present in the payload.
    if (chain_len > r.remaining() / kRunawayBytes) {
      throw std::runtime_error(
          "Checkpoint: run-away chain length " + std::to_string(chain_len) +
          " exceeds the " + std::to_string(r.remaining()) +
          " payload bytes remaining");
    }
    chain.assign(chain_len, {});
    for (auto& a : chain) {
      a.r = r.get_vec3();
      a.v = r.get_vec3();
      a.f = r.get_vec3();
      a.rho = r.get_f64();
      a.id = r.get_i64();
      a.type = static_cast<lat::Species>(r.get_i16());
    }
    // Chains restore in reverse so the head order matches the saved order.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      it->next = lat::AtomEntry::kNoRunaway;
      lnl.add_runaway(*it, idx);
    }
  }
  return time_ps;
}

void Checkpoint::write_kmc_section(std::ostream& os, const kmc::KmcModel& model,
                                   double mc_time_s) {
  ByteWriter w;
  GeoPrefix::of(model.geometry(), model.box()).write(w);
  w.put_f64(mc_time_s);
  w.put_u64(model.owned_indices().size());
  for (std::size_t idx : model.owned_indices()) {
    w.put_u8(static_cast<std::uint8_t>(model.state(idx)));
  }
  write_section(os, kKindKmc, w.str());
}

double Checkpoint::read_kmc_section(std::istream& is, kmc::KmcModel& model) {
  const std::string payload = read_section(is, kKindKmc);
  ByteReader r(payload);
  check_geometry(GeoPrefix::read(r), model.geometry(), model.box());
  const double mc_time_s = r.get_f64();
  const std::uint64_t count = r.get_u64();
  if (count != model.owned_indices().size()) {
    throw std::runtime_error("Checkpoint: owned-site count mismatch");
  }
  for (std::size_t idx : model.owned_indices()) {
    model.set_state(idx, static_cast<kmc::SiteState>(r.get_u8()));
  }
  return mc_time_s;
}

void Checkpoint::write_meta_section(std::ostream& os, const MetaState& meta) {
  ByteWriter w;
  w.put_i32(meta.rank);
  w.put_i32(meta.nranks);
  w.put_u64(meta.seed);
  w.put_f64(meta.md_time_ps);
  w.put_u64(meta.kmc.cycles);
  w.put_u64(meta.kmc.events);
  w.put_f64(meta.kmc.mc_time);
  w.put_f64(meta.kmc.last_max_rate);
  w.put_u64(meta.kmc.rng_state);
  w.put_u32(static_cast<std::uint32_t>(meta.stage_tag.size()));
  for (const char c : meta.stage_tag) {
    w.put_u8(static_cast<std::uint8_t>(c));
  }
  w.put_u64(meta.sample_windows);
  w.put_f64(meta.scd_time_s);
  w.put_f64(meta.sample_est_clusters);
  w.put_f64(meta.sample_ci_halfwidth);
  write_section(os, kKindMeta, w.str());
}

Checkpoint::MetaState Checkpoint::read_meta_section(std::istream& is) {
  const std::string payload = read_section(is, kKindMeta);
  ByteReader r(payload);
  MetaState meta;
  meta.rank = r.get_i32();
  meta.nranks = r.get_i32();
  meta.seed = r.get_u64();
  meta.md_time_ps = r.get_f64();
  meta.kmc.cycles = r.get_u64();
  meta.kmc.events = r.get_u64();
  meta.kmc.mc_time = r.get_f64();
  meta.kmc.last_max_rate = r.get_f64();
  meta.kmc.rng_state = r.get_u64();
  const std::uint32_t tag_len = r.get_u32();
  if (tag_len > 64) {
    throw std::runtime_error("Checkpoint: implausible stage tag length " +
                             std::to_string(tag_len));
  }
  meta.stage_tag.clear();
  for (std::uint32_t i = 0; i < tag_len; ++i) {
    meta.stage_tag.push_back(static_cast<char>(r.get_u8()));
  }
  meta.sample_windows = r.get_u64();
  meta.scd_time_s = r.get_f64();
  meta.sample_est_clusters = r.get_f64();
  meta.sample_ci_halfwidth = r.get_f64();
  return meta;
}

void Checkpoint::save_md(std::ostream& os, const lat::LatticeNeighborList& lnl,
                         double time_ps) {
  write_file_header(os);
  write_md_section(os, lnl, time_ps);
}

double Checkpoint::load_md(std::istream& is, lat::LatticeNeighborList& lnl) {
  read_file_header(is);
  return read_md_section(is, lnl);
}

void Checkpoint::save_kmc(std::ostream& os, const kmc::KmcModel& model,
                          double mc_time_s) {
  write_file_header(os);
  write_kmc_section(os, model, mc_time_s);
}

double Checkpoint::load_kmc(std::istream& is, kmc::KmcModel& model) {
  read_file_header(is);
  return read_kmc_section(is, model);
}

}  // namespace mmd::io
