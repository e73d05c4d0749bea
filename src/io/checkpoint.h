#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "kmc/engine.h"
#include "kmc/model.h"
#include "lattice/lattice_neighbor_list.h"

namespace mmd::io {

/// Binary checkpointing of simulation state: versioned, CRC-guarded section
/// stream. An MD section captures every owned entry (atoms, vacancies,
/// velocities, forces) plus the run-away pool; a KMC section captures the
/// owned site states; a META section captures the coupled-pipeline clocks,
/// cycle/event counters, and RNG state that restart equivalence depends on.
///
/// Format v3 (see docs/CHECKPOINTING.md):
///   file    := magic u32 | version u32 | section*
///   section := kind u32 | payload_len u64 | crc32(payload) u32 | payload
///
/// Payload fields are serialized one by one (little-endian) — no struct
/// padding ever reaches the file, so blobs are byte-deterministic and the
/// CRCs are stable. Every load validates the CRC, bounds every length field
/// against the bytes actually present, and verifies geometry/decomposition
/// before mutating state, failing loudly instead of corrupting the run.
///
/// Checkpoints are per rank (as on real machines: one file per rank); the
/// multi-section composition and the on-disk atomic-write/manifest
/// discipline live in io::CheckpointStore.
class Checkpoint {
 public:
  static constexpr std::uint32_t kMagic = 0x4d4d4443;  // "MMDC"
  static constexpr std::uint32_t kVersion = 3;

  enum Kind : std::uint32_t {
    kKindMd = 1,
    kKindKmc = 2,
    kKindMeta = 3,
  };

  /// Coupled-pipeline state beyond the raw lattice/site arrays: everything a
  /// resumed run needs to continue bit-identically to an uninterrupted one.
  struct MetaState {
    std::int32_t rank = 0;
    std::int32_t nranks = 1;
    std::uint64_t seed = 0;             ///< run seed, cross-checked at load
    double md_time_ps = 0.0;            ///< MD clock at the MD->KMC handoff
    /// Cycle and event counters, MC clock, the next dt sync's seed and the
    /// generator state (not the seed) of this rank's KMC engine.
    kmc::KmcEngineState kmc;
    // --- v3: stage-pipeline schedule position (docs/SAMPLING.md) ---
    /// Which KMC-side propagator wrote the epoch ("kmc" for the all-detailed
    /// pipeline, "sampling" for the sampled window/stride scheduler);
    /// cross-checked at load so a sampled checkpoint never resumes under a
    /// different schedule.
    std::string stage_tag = "kmc";
    std::uint64_t sample_windows = 0;   ///< warming strides completed
    double scd_time_s = 0.0;            ///< MC time covered by SCD warming
    double sample_est_clusters = 0.0;   ///< last stride's replicate mean
    double sample_ci_halfwidth = 0.0;   ///< ... and its 95% CI halfwidth
  };

  // --- whole-file convenience (one header + one section) ---

  /// Serialize the owned state of a lattice neighbor list.
  static void save_md(std::ostream& os, const lat::LatticeNeighborList& lnl,
                      double time_ps);

  /// Restore into a compatible lattice; returns the saved simulation time.
  /// Ghosts are left UNSET — run a ghost exchange before computing forces.
  static double load_md(std::istream& is, lat::LatticeNeighborList& lnl);

  /// Serialize the owned sites of a KMC model plus the MC clock.
  static void save_kmc(std::ostream& os, const kmc::KmcModel& model,
                       double mc_time_s);

  static double load_kmc(std::istream& is, kmc::KmcModel& model);

  // --- composing multi-section rank files (the coupled pipeline) ---

  static void write_file_header(std::ostream& os);
  /// Throws on bad magic or version; a v1 file gets an explicit migration
  /// message rather than a generic mismatch.
  static void read_file_header(std::istream& is);

  static void write_md_section(std::ostream& os,
                               const lat::LatticeNeighborList& lnl,
                               double time_ps);
  static double read_md_section(std::istream& is, lat::LatticeNeighborList& lnl);

  static void write_kmc_section(std::ostream& os, const kmc::KmcModel& model,
                                double mc_time_s);
  static double read_kmc_section(std::istream& is, kmc::KmcModel& model);

  static void write_meta_section(std::ostream& os, const MetaState& meta);
  static MetaState read_meta_section(std::istream& is);

 private:
  static void write_section(std::ostream& os, std::uint32_t kind,
                            const std::string& payload);
  /// Reads one section, validating kind, length (bounded by the bytes left
  /// in the stream) and CRC; returns the payload.
  static std::string read_section(std::istream& is, std::uint32_t expected_kind);
};

}  // namespace mmd::io
