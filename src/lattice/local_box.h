#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmd::lat {

/// Local cell coordinates within one rank's storage: owned cells span
/// [0, l*) per axis; ghost (halo) cells extend to [-halo, l*+halo).
struct LocalCoord {
  int x = 0;
  int y = 0;
  int z = 0;
  int sub = 0;

  friend bool operator==(const LocalCoord&, const LocalCoord&) = default;
};

/// The cell-aligned subdomain owned by one rank, plus its halo. Storage is a
/// dense 3D array of (l+2*halo) cells per axis with two sites per cell, so
/// neighbor lookups reduce to constant flat-index deltas for every interior
/// site — the essence of the lattice neighbor list.
struct LocalBox {
  int ox = 0, oy = 0, oz = 0;  ///< global cell coords of owned origin
  int lx = 0, ly = 0, lz = 0;  ///< owned extent in unit cells
  int halo = 0;                ///< ghost shell width in unit cells

  friend bool operator==(const LocalBox&, const LocalBox&) = default;

  int sx() const { return lx + 2 * halo; }
  int sy() const { return ly + 2 * halo; }
  int sz() const { return lz + 2 * halo; }

  std::size_t num_cells() const {
    return static_cast<std::size_t>(sx()) * sy() * sz();
  }
  std::size_t num_entries() const { return 2 * num_cells(); }
  std::size_t num_owned_sites() const {
    return 2ull * static_cast<std::size_t>(lx) * ly * lz;
  }

  /// Flat entry index of a local coordinate (must be inside storage).
  std::size_t entry_index(const LocalCoord& c) const {
    const std::size_t cell =
        (static_cast<std::size_t>(c.z + halo) * sy() + (c.y + halo)) * sx() +
        (c.x + halo);
    return 2 * cell + static_cast<std::size_t>(c.sub);
  }

  LocalCoord coord_of(std::size_t idx) const {
    LocalCoord c;
    c.sub = static_cast<int>(idx & 1);
    std::size_t cell = idx >> 1;
    c.x = static_cast<int>(cell % sx()) - halo;
    cell /= static_cast<std::size_t>(sx());
    c.y = static_cast<int>(cell % sy()) - halo;
    c.z = static_cast<int>(cell / sy()) - halo;
    return c;
  }

  bool owns(const LocalCoord& c) const {
    return c.x >= 0 && c.x < lx && c.y >= 0 && c.y < ly && c.z >= 0 && c.z < lz;
  }

  bool in_storage(const LocalCoord& c) const {
    return c.x >= -halo && c.x < lx + halo && c.y >= -halo && c.y < ly + halo &&
           c.z >= -halo && c.z < lz + halo && (c.sub == 0 || c.sub == 1);
  }

  /// Flat-index displacement of a cell offset (dx,dy,dz) plus sublattice
  /// change; valid for any central site whose neighbors stay in storage.
  std::int64_t flat_delta(int dx, int dy, int dz, int dsub) const {
    return 2 * ((static_cast<std::int64_t>(dz) * sy() + dy) * sx() + dx) + dsub;
  }
};

/// A half-open box of owned cells, [x0,x1) x [y0,y1) x [z0,z1) in local cell
/// coordinates — the unit the compute/communication overlap splits sweeps by.
struct CellRegion {
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0, z0 = 0, z1 = 0;

  bool empty() const { return x1 <= x0 || y1 <= y0 || z1 <= z0; }
  std::size_t cells() const {
    return empty() ? 0
                   : static_cast<std::size_t>(x1 - x0) *
                         static_cast<std::size_t>(y1 - y0) *
                         static_cast<std::size_t>(z1 - z0);
  }
  bool contains(const LocalCoord& c) const {
    return c.x >= x0 && c.x < x1 && c.y >= y0 && c.y < y1 && c.z >= z0 &&
           c.z < z1;
  }

  static CellRegion full(const LocalBox& b) {
    return {0, b.lx, 0, b.ly, 0, b.lz};
  }
};

/// Owned cells at least `margin` cells from every subdomain face: a site in
/// here has its whole neighbor stencil (reach <= margin cells) inside the
/// owned region, so it can be computed while a halo exchange is in flight.
/// Empty when the subdomain is thinner than 2*margin on any axis.
inline CellRegion interior_region(const LocalBox& b, int margin) {
  CellRegion r{margin, b.lx - margin, margin, b.ly - margin,
               margin, b.lz - margin};
  if (r.empty()) return {};
  return r;
}

/// Decompose owned-minus-interior into at most 6 disjoint slab regions
/// (z-slabs, then y-slabs, then x-slabs of the remainder). When the interior
/// is empty the whole owned box is returned as a single region. Appends to
/// `out`; skips empty slabs.
inline void boundary_shell(const LocalBox& b, int margin,
                           std::vector<CellRegion>& out) {
  const CellRegion in = interior_region(b, margin);
  if (in.empty()) {
    if (!CellRegion::full(b).empty()) out.push_back(CellRegion::full(b));
    return;
  }
  auto add = [&](CellRegion r) {
    if (!r.empty()) out.push_back(r);
  };
  add({0, b.lx, 0, b.ly, 0, in.z0});
  add({0, b.lx, 0, b.ly, in.z1, b.lz});
  add({0, b.lx, 0, in.y0, in.z0, in.z1});
  add({0, b.lx, in.y1, b.ly, in.z0, in.z1});
  add({0, in.x0, in.y0, in.y1, in.z0, in.z1});
  add({in.x1, b.lx, in.y0, in.y1, in.z0, in.z1});
}

}  // namespace mmd::lat
