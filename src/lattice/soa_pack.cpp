#include "lattice/soa_pack.h"

#include <algorithm>

#include "lattice/lattice_neighbor_list.h"

namespace mmd::lat {

void SoaPlanes::reset(const LocalBox& box, std::size_t runaways) {
  num_cells_ = box.num_cells();
  const std::size_t n = 2 * num_cells_;
  for (std::vector<double>* plane : {&x_, &y_, &z_, &id_}) {
    plane->resize(n + kTailPad);
    std::fill(plane->begin() + static_cast<std::ptrdiff_t>(n), plane->end(),
              plane == &id_ ? -1.0 : 0.0);
  }
  fprime_.resize(n + runaways + kTailPad);
}

void SoaPlanes::pack_positions(const LatticeNeighborList& lnl) {
  // Iterate in slot order (sub-major) so every plane is written as two
  // contiguous streaming passes instead of a strided scatter.
  for (std::size_t sub = 0; sub < 2; ++sub) {
    const std::size_t base = sub * num_cells_;
    for (std::size_t cell = 0; cell < num_cells_; ++cell) {
      const AtomEntry& e = lnl.entry(2 * cell + sub);
      x_[base + cell] = e.r.x;
      y_[base + cell] = e.r.y;
      z_[base + cell] = e.r.z;
      id_[base + cell] = e.is_atom() ? static_cast<double>(e.id) : -1.0;
    }
  }
}

}  // namespace mmd::lat
