#pragma once

#include <cstdint>
#include <vector>

#include "lattice/decomposition.h"
#include "lattice/geometry.h"
#include "lattice/local_box.h"
#include "lattice/neighbor_offsets.h"
#include "potential/eam.h"
#include "util/units.h"

namespace mmd::kmc {

/// AKMC site occupancy. Atoms and vacancies are uniformly named "sites"
/// (paper §2.2); the on-lattice approximation maps every atom or vacancy to a
/// lattice point.
enum class SiteState : std::uint8_t {
  Fe = 0,
  Cu = 1,
  Vacancy = 255,
};

inline bool is_atom(SiteState s) { return s != SiteState::Vacancy; }

/// Configuration of the KMC stage. Defaults are the paper's: Fe at 600 K,
/// attempt frequency 1e13/s, t_threshold = 2e-4 s of MC time.
struct KmcConfig {
  int nx = 10, ny = 10, nz = 10;
  double lattice_constant = util::iron::kLatticeConstant;
  double cutoff = 5.0;                 ///< EAM cutoff [A]
  double temperature = 600.0;          ///< [K]
  double prefactor = util::iron::kAttemptFrequency;          ///< nu [1/s]
  double migration_barrier = util::iron::kVacancyMigrationBarrier;  ///< E_m0 [eV]
  double min_barrier = 0.05;           ///< clamp for downhill exchanges [eV]
  double t_threshold = 2.0e-4;         ///< MC time budget [s] (paper §3)
  double dt_scale = 1.0;               ///< cycle dt = dt_scale / k_max
  std::uint64_t seed = 42;
  int table_segments = 5000;
  /// Maintain the sector's event table incrementally (dirty-region rate
  /// refreshes, rates cached across cycles). false = full rescan after every
  /// event, the O(N_owned)-per-event equivalence oracle (scenario key
  /// `kmc.incremental`). Both paths share the same partial-sum tree for
  /// totals and selection, so the event sequence is bit-identical.
  bool incremental = true;
  /// Test hook: record every executed event's (vacancy gid, atom gid) pair
  /// in KmcEngine::event_log() for sequence-equivalence assertions.
  bool record_events = false;
};

/// KMC real-time conversion (paper §3): t_real = t_threshold * C_MC / C_real
/// with C_real = exp(-E_v+ / kB T). Returns seconds of physical time.
double real_time_scale(double t_threshold_s, double vacancy_concentration,
                       double temperature,
                       double formation_energy = util::iron::kVacancyFormationEnergy);

/// One rank's on-lattice site array plus the EAM energetics used to rate
/// vacancy-exchange events.
///
/// Storage mirrors the MD LocalBox layout (owned cells + halo), one byte per
/// site. A global site may have several local images when the rank grid is
/// short along an axis; `set_state_global` keeps every image coherent, which
/// is what lets the traditional and on-demand communication strategies
/// produce bit-identical configurations.
/// `set_state` and `set_state_global`, the only writers, append every local
/// entry whose state changes to a flip journal (drained by the engine).
class KmcModel {
 public:
  KmcModel(const KmcConfig& cfg, const lat::BccGeometry& geo,
           const lat::DomainDecomposition& dd, const pot::EamTableSet& tables,
           int rank);

  const lat::BccGeometry& geometry() const { return *geo_; }
  const lat::LocalBox& box() const { return box_; }
  const KmcConfig& config() const { return cfg_; }
  int rank() const { return rank_; }

  // --- state access --------------------------------------------------------

  SiteState state(std::size_t idx) const { return sites_[idx]; }
  void set_state(std::size_t idx, SiteState s) {
    if (sites_[idx] == s) return;
    sites_[idx] = s;
    flips_.push_back(idx);
  }
  std::size_t size() const { return sites_.size(); }

  /// Local entries whose state changed since the last clear_flips(), in
  /// write order (an entry flipped twice appears twice).
  const std::vector<std::size_t>& flips() const { return flips_; }
  void clear_flips() { flips_.clear(); }

  /// Raw site array (main-memory view for the slave-core rate kernel).
  const SiteState* raw_sites() const { return sites_.data(); }

  std::int64_t site_rank_of(std::size_t idx) const;
  std::size_t index_of_local(const lat::LocalCoord& c) const {
    return box_.entry_index(c);
  }

  /// All local storage indices holding an image of global site `gid`
  /// (owned and ghost); at least one if the site is in this rank's storage.
  void images_of_global(std::int64_t gid, std::vector<std::size_t>& out) const;

  /// Set every local image of a global site (no-op images outside storage);
  /// journals each image that changes.
  void set_state_global(std::int64_t gid, SiteState s);

  /// Whether this rank's storage holds any image of the global cell.
  bool in_storage_global(std::int64_t gid) const;

  // --- energetics -----------------------------------------------------------

  /// Host electron density felt by an atom of species `center_type` at the
  /// position of site idx (occupied neighbors only, self excluded). The
  /// cutoff stencil of idx must lie in storage, as it does for owned sites
  /// and their 1NNs (the constructor's halo check); otherwise throws
  /// std::out_of_range naming the entry.
  double rho_at(std::size_t idx, int center_type = 0) const;

  /// Pair-energy sum of an atom of species `center_type` at site idx with
  /// occupied neighbors, optionally pretending site `exclude` is empty.
  /// Same stencil precondition as rho_at.
  double pair_energy_at(std::size_t idx, std::size_t exclude,
                        int center_type = 0) const;

  /// Energy change of moving the atom at `atom_idx` into the vacancy at
  /// `vac_idx` (its 1NN), in the kinetically-resolved local approximation
  /// described in DESIGN.md: the same bits as embedding rho_at plus
  /// pair_energy_at at each centre, from one stencil walk per centre.
  double exchange_dE(std::size_t vac_idx, std::size_t atom_idx) const;

  /// Transition rate k = nu * exp(-(E_m0 + dE/2) / kB T) (paper Eq. 4), with
  /// the barrier clamped at min_barrier.
  double rate(double dE) const;

  // --- neighbor tables -------------------------------------------------------

  /// All offsets within the EAM cutoff for a sublattice.
  const std::vector<lat::SiteOffset>& cutoff_offsets(int sub) const {
    return offsets_[sub];
  }
  /// The 8 first-nearest-neighbor offsets (the possible vacancy events,
  /// paper §2.2: "eight possible events for a vacancy").
  const std::vector<lat::SiteOffset>& nn_offsets(int sub) const {
    return nn_[sub];
  }
  const std::vector<std::int64_t>& cutoff_deltas(int sub) const {
    return deltas_[sub];
  }

  /// Owned entry indices (rank order).
  const std::vector<std::size_t>& owned_indices() const { return owned_; }
  bool is_owned(std::size_t idx) const { return box_.owns(box_.coord_of(idx)); }

  /// Dense ordinal of an owned entry within owned_indices() — the canonical
  /// candidate-block address of the incremental event table — or
  /// `kNotOwned` for halo entries.
  static constexpr std::uint32_t kNotOwned = 0xffffffffu;
  std::uint32_t owned_ordinal(std::size_t idx) const {
    return owned_ordinal_[idx];
  }

  /// A pure cell/sublattice displacement (no geometry payload), used by the
  /// invalidation shell below.
  struct ShellOffset {
    int dx = 0, dy = 0, dz = 0;
    int to_sub = 0;
  };

  /// Invalidation shell of a site on sublattice `sub`: every offset o such
  /// that flipping the state at c can change the existence or the rate of a
  /// candidate whose vacancy sits at c + o. A candidate (v, n) reads the
  /// states within the EAM cutoff of v and of n (n a 1NN of v), plus the
  /// occupancy of v and n themselves — so the shell is the cutoff shell
  /// dilated by the 1NN shell: {0} ∪ cutoff ∪ (cutoff ∘ nn), deduplicated.
  /// Both shells are symmetric under negation on the BCC lattice, so the
  /// "who do I affect" and "who affects me" sets coincide.
  const std::vector<ShellOffset>& invalidation_offsets(int sub) const {
    return invalidation_[sub];
  }

  std::size_t count_owned_vacancies() const;
  std::vector<std::int64_t> owned_vacancy_sites() const;

  std::size_t memory_bytes() const;

 private:
  /// Per-shell table values: on-lattice KMC only ever evaluates phi/f at the
  /// discrete neighbor-shell distances, so the (pair, offset) values are
  /// precomputed once from the interpolation tables — bit-identical to a
  /// live table lookup, with no per-rate table traffic on the master core.
  double f_shell(int sub, int t0, int t1, std::size_t k) const {
    return f_cache_[sub][pair_of(t0, t1) * offsets_[sub].size() + k];
  }
  double phi_shell(int sub, int t0, int t1, std::size_t k) const {
    return phi_cache_[sub][pair_of(t0, t1) * offsets_[sub].size() + k];
  }

  /// One walk of the cutoff stencil of `idx` for an atom of species `t`:
  /// ρ over every occupied entry, the pair sum over all but `partner`, and
  /// the ρ term of `partner` (0 unless it is an occupied stencil entry).
  struct CentreSums {
    double rho = 0.0;
    double pair = 0.0;
    double partner_rho = 0.0;
  };
  CentreSums centre_sums(std::size_t idx, int t, std::size_t partner) const;

  const KmcConfig cfg_;
  const lat::BccGeometry* geo_;
  lat::LocalBox box_;
  const pot::EamTableSet* tables_;
  int rank_;
  std::size_t pair_of(int t0, int t1) const { return tables_->pair_index(t0, t1); }
  std::vector<double> f_cache_[2];
  std::vector<double> phi_cache_[2];
  std::vector<SiteState> sites_;
  std::vector<std::size_t> flips_;  ///< flip journal (local entry indices)
  std::vector<std::size_t> owned_;
  std::vector<std::uint32_t> owned_ordinal_;
  std::vector<ShellOffset> invalidation_[2];
  std::vector<lat::SiteOffset> offsets_[2];
  std::vector<lat::SiteOffset> nn_[2];
  std::vector<std::int64_t> deltas_[2];
  /// Per entry: 1 iff its whole cutoff stencil lies in storage, so the
  /// energetics may walk deltas_ from it.
  std::vector<std::uint8_t> stencil_in_storage_;
  double kT_;

  /// Throws std::out_of_range unless the stencil of idx lies in storage.
  void check_stencil(std::size_t idx) const;
};

}  // namespace mmd::kmc
