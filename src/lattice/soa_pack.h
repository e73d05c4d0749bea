#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lattice/local_box.h"
#include "util/vec3.h"

namespace mmd::lat {

class LatticeNeighborList;

/// Sublattice-deinterleaved SoA particle planes, one set per rank, read by
/// both force kernels: the slave-core sweeps stage them into their local
/// store windows, and md::ReferenceForce's lane path loads them straight
/// from main memory.
///
/// The lattice neighbor list stores entries AoS and sublattice-interleaved
/// (entry index = 2*cell + sub). For SIMD the force kernels want the
/// opposite: one PLANE per field (x, y, z, F'(rho), id) laid out sub-major —
///
///     plane[sub * num_cells + cell]
///
/// so that a row of cells of ONE sublattice is a contiguous run of doubles.
/// That is the neighbor-contiguous packing of the cell-decomposition data
/// sorting literature (physics/0311055) applied to the fixed BCC stencil:
/// every neighbor offset of a 4-atom SIMD group of central atoms becomes one
/// unit-stride unaligned vector load, and the block-window DMA stays a run
/// per (plane, sub, row).
///
/// Every plane ends in kTailPad slots past the 2*num_cells entry slots, so
/// a group of four that starts in a row's last owned cells, and each of its
/// stencil loads, stays inside the allocation; the pad reads as non-atom
/// (id -1, position 0). The F'(rho) plane also holds one slot per run-away
/// pool node, right after the entries (runaway_slot), which is where
/// lat::ParticleView::slot points for a run-away.
///
/// Field semantics match the old AoS Packed record: `id` is the global atom
/// id as a double, negative (-1.0) for vacancies/unset entries — the packed
/// is-atom mask; `fprime` is F'(rho), written by the force kernel that owns
/// the planes.
class SoaPlanes {
 public:
  /// Slots after the entries that a lane group may load. A group's last
  /// lanes lie up to three cells past its row, so a stencil that reached
  /// the far corner of the halo would load up to three slots past the last
  /// entry slot. (A BCC cutoff sphere never reaches that corner of its
  /// halo; the pad keeps the bound independent of the stencil's shape.)
  static constexpr std::size_t kTailPad = 4;

  /// Resize the planes for one rank's storage (owned + ghost cells), with
  /// `runaways` run-away slots in the F'(rho) plane, and rewrite the tail
  /// pad. Kept contents are stale after a change of box.
  void reset(const LocalBox& box, std::size_t runaways = 0);

  /// Entry slots per plane (the tail pad and run-away slots not counted).
  std::size_t size() const { return 2 * num_cells_; }
  std::size_t cells() const { return num_cells_; }
  bool empty() const { return num_cells_ == 0; }

  /// Plane slot of a lattice entry index: cell + sub*num_cells.
  static std::size_t slot_of(std::size_t entry_idx, std::size_t num_cells) {
    return (entry_idx >> 1) + (entry_idx & 1) * num_cells;
  }
  std::size_t slot(std::size_t entry_idx) const {
    return slot_of(entry_idx, num_cells_);
  }
  /// F'(rho) slot of run-away pool node `ri`: after every entry slot.
  static std::size_t runaway_slot_of(std::int32_t ri, std::size_t num_cells) {
    return 2 * num_cells + static_cast<std::size_t>(ri);
  }
  /// Inverse of slot() — entry index whose fields live at plane slot `s`.
  std::size_t entry_of(std::size_t s) const {
    const std::size_t sub = s >= num_cells_ ? 1 : 0;
    return 2 * (s - sub * num_cells_) + sub;
  }

  double* x() { return x_.data(); }
  double* y() { return y_.data(); }
  double* z() { return z_.data(); }
  double* fprime() { return fprime_.data(); }
  double* id() { return id_.data(); }
  const double* x() const { return x_.data(); }
  const double* y() const { return y_.data(); }
  const double* z() const { return z_.data(); }
  const double* fprime() const { return fprime_.data(); }
  const double* id() const { return id_.data(); }

  /// Pack position + id of EVERY entry (owned and ghost, atoms, vacancies
  /// and unset ghosts) into the planes; fprime is left untouched — the force
  /// path owns that field (it needs the embedding table).
  void pack_positions(const LatticeNeighborList& lnl);

  /// Round-trip accessors (tests and debugging): the packed fields of one
  /// entry, read back through the slot mapping.
  util::Vec3 position(std::size_t entry_idx) const {
    const std::size_t s = slot(entry_idx);
    return {x_[s], y_[s], z_[s]};
  }
  double packed_id(std::size_t entry_idx) const { return id_[slot(entry_idx)]; }

 private:
  std::vector<double> x_, y_, z_, fprime_, id_;
  std::size_t num_cells_ = 0;
};

}  // namespace mmd::lat
