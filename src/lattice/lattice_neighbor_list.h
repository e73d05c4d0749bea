#pragma once

#include <cstdint>
#include <vector>

#include "lattice/atom.h"
#include "lattice/geometry.h"
#include "lattice/local_box.h"
#include "lattice/neighbor_offsets.h"
#include "lattice/soa_pack.h"

namespace mmd::lat {

/// Uniform read-only view of a particle (lattice atom or run-away atom)
/// passed to neighbor visitors.
struct ParticleView {
  const util::Vec3& r;
  Species type;
  double rho;
  std::int64_t id;
  /// Index of the particle in the F'(rho) plane of lat::SoaPlanes:
  /// entry i at LatticeNeighborList::entry_slot(i) (sublattice-major),
  /// run-away node ri at runaway_slot(ri), after every entry.
  std::size_t slot;
};

/// The paper's dedicated data structure for BCC metals (§2.1.1):
///
///  * Atom information lives in a flat array ranked by lattice position;
///    there is NO per-atom neighbor storage — neighbor indices are the same
///    constant flat-index deltas for every central site.
///  * An atom that leaves its lattice point ("run-away atom") moves to a
///    dynamically sized pool and is linked, via an intrusive singly linked
///    list, to its nearest lattice point. The vacated entry becomes a
///    vacancy tombstone (negative id) recording the vacancy position.
///  * Neighbor queries visit the lattice entries selected by the offset
///    table plus every run-away chain hanging off those entries.
///
/// Compared with Verlet neighbor lists (LAMMPS) and linked cells (IMD/CoMD),
/// this stores no neighbor indices and no cell occupancy lists, which is the
/// memory saving the paper's weak-scaling record relies on; see
/// `bench/tab_memory_footprint`.
///
/// Positions are kept in the *local frame*: ghost copies received across the
/// periodic boundary are shifted by +-L, so plain coordinate differences are
/// correct and no minimum-image logic appears in force kernels.
class LatticeNeighborList {
 public:
  LatticeNeighborList(const BccGeometry& geo, const LocalBox& box, double cutoff);

  const BccGeometry& geometry() const { return *geo_; }
  const LocalBox& box() const { return box_; }
  double cutoff() const { return cutoff_; }

  // --- entry access -------------------------------------------------------

  std::size_t size() const { return entries_.size(); }
  AtomEntry& entry(std::size_t i) { return entries_[i]; }
  const AtomEntry& entry(std::size_t i) const { return entries_[i]; }

  /// Global (wrapped) site rank of an entry.
  std::int64_t site_rank(std::size_t idx) const;

  /// Ideal lattice position of an entry in the local frame (ghost cells give
  /// coordinates outside the primary box, by design).
  util::Vec3 ideal_position(std::size_t idx) const;

  /// Entry index of the lattice site nearest to `r` (local frame). Returns
  /// SIZE_MAX if the nearest site falls outside this rank's storage.
  std::size_t nearest_entry(const util::Vec3& r) const;

  /// Entry index of the nearest OWNED lattice site (candidates clamped into
  /// the owned region). Run-away atoms are only ever chained to owned hosts:
  /// a ghost-hosted chain node would be dropped by the next clear_ghosts().
  std::size_t nearest_owned_entry(const util::Vec3& r) const;

  /// Populate every storage entry (owned and ghost) with a perfect crystal.
  void fill_perfect(Species s);

  /// Mark all ghost entries unset and clear their run-away chains.
  void clear_ghosts();

  /// Return every ghost chain node to the pool and empty the ghost chains,
  /// leaving the ghost entries' own fields as they are (for an exchange
  /// that overwrites each of them anyway).
  void release_ghost_chains();

  /// Indices of all owned entries, in rank order (cached).
  const std::vector<std::size_t>& owned_indices() const { return owned_; }

  /// Indices of all ghost (halo) entries, ascending (cached): the complement
  /// of owned_indices() in storage.
  const std::vector<std::size_t>& ghost_indices() const { return ghosts_; }

  /// Owned entries whose cell lies at least `halo` cells from every
  /// subdomain face: their neighbor stencils never read ghost storage, so
  /// their forces can be computed while a halo exchange is still in flight.
  /// Disjoint from owned_boundary_indices(); the union (in rank order) is
  /// owned_indices(). Empty when the subdomain is thinner than two halos.
  const std::vector<std::size_t>& owned_interior_indices() const {
    return interior_;
  }

  /// Owned entries within `halo` cells of a face — the complement shell,
  /// whose stencils reach ghost entries (compute only after the exchange).
  const std::vector<std::size_t>& owned_boundary_indices() const {
    return boundary_;
  }

  bool is_owned(std::size_t idx) const { return box_.owns(box_.coord_of(idx)); }

  // --- neighbor iteration --------------------------------------------------

  const std::vector<SiteOffset>& offsets(int sub) const { return offsets_[sub]; }
  const std::vector<std::int64_t>& deltas(int sub) const { return deltas_[sub]; }

  /// Visit every particle within the cutoff of the lattice entry at `idx`:
  /// neighbor lattice atoms, run-away atoms chained to neighbor lattice
  /// points, and run-aways chained to `idx` itself. Vacancy/unset entries are
  /// not reported. The central entry itself is excluded by id.
  template <typename F>
  void for_each_neighbor_of_entry(std::size_t idx, F&& f) const {
    const AtomEntry& center = entries_[idx];
    visit_region(idx, center.id, f);
  }

  /// Same, for a run-away atom: it sees exactly what its host lattice point
  /// sees (paper: "it checks the same neighbor atoms as the nearest lattice
  /// point it is linked to"), plus the host entry itself, minus itself.
  template <typename F>
  void for_each_neighbor_of_runaway(std::int32_t ri, std::size_t host_idx,
                                    F&& f) const {
    const RunawayAtom& self = runaways_[static_cast<std::size_t>(ri)];
    const AtomEntry& host = entries_[host_idx];
    if (host.is_atom()) {
      f(ParticleView{host.r, host.type, host.rho, host.id, entry_slot(host_idx)});
    }
    visit_region(host_idx, self.id, f);
  }

  // --- run-away management --------------------------------------------------

  RunawayAtom& runaway(std::int32_t i) { return runaways_[static_cast<std::size_t>(i)]; }
  const RunawayAtom& runaway(std::int32_t i) const {
    return runaways_[static_cast<std::size_t>(i)];
  }

  /// Run-away pool nodes (live or free): the run-away slots a particle
  /// plane indexed by ParticleView::slot needs after its entry slots.
  std::size_t runaway_slots() const { return runaways_.size(); }
  /// ParticleView::slot of entry i and of run-away node ri, in the layout of
  /// lat::SoaPlanes.
  std::size_t entry_slot(std::size_t i) const {
    return SoaPlanes::slot_of(i, entries_.size() >> 1);
  }
  std::size_t runaway_slot(std::int32_t ri) const {
    return SoaPlanes::runaway_slot_of(ri, entries_.size() >> 1);
  }

  /// Allocate a run-away node and push it onto the chain of `host_idx`.
  std::int32_t add_runaway(const RunawayAtom& a, std::size_t host_idx);

  /// Unlink node `ri` from the chain of `host_idx` and return it to the pool.
  void remove_runaway(std::int32_t ri, std::size_t host_idx);

  /// Convert the atom at `idx` into a vacancy tombstone and move the atom to
  /// the run-away pool, linked to the lattice point nearest its position.
  /// If that lattice point is not owned by this rank, the atom is appended to
  /// `emigrants` instead (or, when emigrants is null, linked to the nearest
  /// owned site). Returns the run-away node index, or kNoRunaway if the atom
  /// emigrated.
  std::int32_t detach(std::size_t idx,
                      std::vector<RunawayAtom>* emigrants = nullptr);

  /// Re-evaluate every run-away hosted in the owned region: re-link atoms
  /// whose nearest lattice point changed, and let a run-away that reached a
  /// vacancy re-occupy it (the vacancy record "is overlapped by the run-away
  /// atom"). Run-aways whose host left this rank's storage are returned as
  /// emigrants for the caller (ghost exchange) to route. Returns the number
  /// of vacancy re-occupations.
  int rehome_runaways(std::vector<RunawayAtom>* emigrants);

  /// Maximum distance [A] at which a run-away atom re-occupies a vacancy at
  /// its nearest lattice point. Must be below the MD detach threshold, or a
  /// freshly detached atom would immediately re-attach.
  double reattach_threshold() const { return reattach_threshold_; }

  /// Visit every live run-away chained to an owned entry as (node index,
  /// host entry index).
  template <typename F>
  void for_each_owned_runaway(F&& f) const {
    for (std::size_t idx : owned_) {
      for (std::int32_t ri = entries_[idx].runaway_head;
           ri != AtomEntry::kNoRunaway;) {
        const std::int32_t next = runaways_[static_cast<std::size_t>(ri)].next;
        f(ri, idx);
        ri = next;
      }
    }
  }

  // --- statistics -----------------------------------------------------------

  std::size_t count_owned_atoms() const;
  std::size_t count_owned_vacancies() const;
  /// Run-aways chained to OWNED entries (ghost chains hold copies of other
  /// ranks' — or, with periodic self-neighboring, this rank's own — atoms
  /// and must not be double counted).
  std::size_t count_owned_runaways() const;
  /// All pool nodes, including ghost-image copies.
  std::size_t count_live_runaways() const { return runaways_.size() - free_.size(); }

  /// Bytes of heap memory held by this structure (entries + run-away pool +
  /// offset tables). Baseline structures implement the same query for the
  /// memory-footprint comparison.
  std::size_t memory_bytes() const;

 private:
  template <typename F>
  void visit_region(std::size_t idx, std::int64_t self_id, F&& f) const {
    const int sub = static_cast<int>(idx & 1);
    for (const std::int64_t d : deltas_[sub]) {
      const std::size_t n = idx + static_cast<std::size_t>(d);
      const AtomEntry& e = entries_[n];
      if (e.is_atom() && e.id != self_id) {
        f(ParticleView{e.r, e.type, e.rho, e.id, entry_slot(n)});
      }
      visit_chain(e.runaway_head, self_id, f);
    }
    visit_chain(entries_[idx].runaway_head, self_id, f);
  }

  template <typename F>
  void visit_chain(std::int32_t head, std::int64_t self_id, F&& f) const {
    for (std::int32_t ri = head; ri != AtomEntry::kNoRunaway;
         ri = runaways_[static_cast<std::size_t>(ri)].next) {
      const RunawayAtom& a = runaways_[static_cast<std::size_t>(ri)];
      if (a.id != self_id) {
        f(ParticleView{a.r, a.type, a.rho, a.id, runaway_slot(ri)});
      }
    }
  }

  const BccGeometry* geo_;
  LocalBox box_;
  double cutoff_;
  std::vector<AtomEntry> entries_;
  std::vector<RunawayAtom> runaways_;
  std::vector<std::int32_t> free_;
  std::vector<std::size_t> owned_;
  std::vector<std::size_t> ghosts_;    ///< halo entries, ascending
  std::vector<std::size_t> interior_;  ///< owned, stencil ghost-free
  std::vector<std::size_t> boundary_;  ///< owned, stencil reads ghosts
  std::vector<SiteOffset> offsets_[2];
  std::vector<std::int64_t> deltas_[2];
  double reattach_threshold_ = 0.8;
};

}  // namespace mmd::lat
