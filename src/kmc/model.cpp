#include "kmc/model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

namespace mmd::kmc {

double real_time_scale(double t_threshold_s, double vacancy_concentration,
                       double temperature, double formation_energy) {
  const double c_real =
      std::exp(-formation_energy / (util::units::kBoltzmann * temperature));
  return t_threshold_s * vacancy_concentration / c_real;
}

KmcModel::KmcModel(const KmcConfig& cfg, const lat::BccGeometry& geo,
                   const lat::DomainDecomposition& dd,
                   const pot::EamTableSet& tables, int rank)
    : cfg_(cfg),
      geo_(&geo),
      box_(dd.local_box(rank)),
      tables_(&tables),
      rank_(rank),
      kT_(util::units::kBoltzmann * cfg.temperature) {
  // The box halo must cover the EAM cutoff PLUS one cell, because the energy
  // of a ghost exchange partner (one cell into the halo) is evaluated over
  // its own cutoff neighborhood.
  const int needed = lat::required_halo_cells(cfg.lattice_constant, cfg.cutoff) + 1;
  if (box_.halo < needed) {
    throw std::invalid_argument("KmcModel: halo too small for cutoff + ghost events");
  }
  for (int sub = 0; sub <= 1; ++sub) {
    offsets_[sub] = lat::bcc_neighbor_offsets(cfg.lattice_constant, cfg.cutoff, sub);
    nn_[sub].assign(offsets_[sub].begin(), offsets_[sub].begin() + 8);
    deltas_[sub].reserve(offsets_[sub].size());
    for (const auto& o : offsets_[sub]) {
      deltas_[sub].push_back(box_.flat_delta(o.dx, o.dy, o.dz, o.to_sub - sub));
    }
  }
  // Sanity: the first 8 offsets of a BCC lattice are the 1NN shell at
  // sqrt(3)/2 * a.
  const double d1 = std::sqrt(nn_[0][0].dist2);
  if (std::abs(d1 - std::sqrt(3.0) / 2.0 * cfg.lattice_constant) > 1e-9) {
    throw std::logic_error("KmcModel: unexpected first-neighbor shell");
  }
  // Per-shell caches: every (species pair, offset) gets its table value
  // precomputed (see f_shell/phi_shell).
  const auto n_sp = static_cast<std::size_t>(tables.num_species);
  const std::size_t n_pairs = n_sp * (n_sp + 1) / 2;
  for (int sub = 0; sub <= 1; ++sub) {
    const std::size_t n_off = offsets_[sub].size();
    f_cache_[sub].resize(n_pairs * n_off);
    phi_cache_[sub].resize(n_pairs * n_off);
    for (int i = 0; i < tables.num_species; ++i) {
      for (int j = i; j < tables.num_species; ++j) {
        const std::size_t p = tables.pair_index(i, j);
        for (std::size_t k = 0; k < n_off; ++k) {
          const double r = std::sqrt(offsets_[sub][k].dist2);
          f_cache_[sub][p * n_off + k] = tables.f(i, j).value(r);
          phi_cache_[sub][p * n_off + k] = tables.phi(i, j).value(r);
        }
      }
    }
  }
  // Reach of each sublattice's cutoff stencil, per axis: a site's stencil
  // lies in storage iff these bounds do.
  struct Reach {
    int lo[3] = {0, 0, 0};
    int hi[3] = {0, 0, 0};
  };
  Reach reach[2];
  for (int sub = 0; sub <= 1; ++sub) {
    for (const auto& o : offsets_[sub]) {
      const int d[3] = {o.dx, o.dy, o.dz};
      for (int a = 0; a < 3; ++a) {
        reach[sub].lo[a] = std::min(reach[sub].lo[a], d[a]);
        reach[sub].hi[a] = std::max(reach[sub].hi[a], d[a]);
      }
    }
  }
  sites_.assign(box_.num_entries(), SiteState::Fe);
  owned_.reserve(box_.num_owned_sites());
  owned_ordinal_.assign(box_.num_entries(), kNotOwned);
  stencil_in_storage_.assign(box_.num_entries(), 0);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const lat::LocalCoord c = box_.coord_of(i);
    if (box_.owns(c)) {
      owned_ordinal_[i] = static_cast<std::uint32_t>(owned_.size());
      owned_.push_back(i);
    }
    const Reach& r = reach[c.sub];
    stencil_in_storage_[i] =
        box_.in_storage({c.x + r.lo[0], c.y + r.lo[1], c.z + r.lo[2], c.sub}) &&
        box_.in_storage({c.x + r.hi[0], c.y + r.hi[1], c.z + r.hi[2], c.sub});
  }
  // Invalidation shells: {0} ∪ cutoff ∪ (cutoff ∘ nn) per sublattice, as a
  // sorted deduplicated set so the engine's dirty sweeps are deterministic.
  for (int sub = 0; sub <= 1; ++sub) {
    std::set<std::array<int, 4>> shell;
    shell.insert({0, 0, 0, sub});
    for (const auto& o1 : offsets_[sub]) {
      shell.insert({o1.dx, o1.dy, o1.dz, o1.to_sub});
      for (const auto& o2 : nn_[o1.to_sub]) {
        shell.insert({o1.dx + o2.dx, o1.dy + o2.dy, o1.dz + o2.dz, o2.to_sub});
      }
    }
    // The site's own 1NNs (candidate partners of a flipped vacancy) are
    // already inside the cutoff shell, but keep the union explicit in case a
    // tiny cutoff ever excludes them.
    for (const auto& o2 : nn_[sub]) {
      shell.insert({o2.dx, o2.dy, o2.dz, o2.to_sub});
    }
    invalidation_[sub].reserve(shell.size());
    for (const auto& s : shell) {
      invalidation_[sub].push_back({s[0], s[1], s[2], s[3]});
    }
  }
}

std::int64_t KmcModel::site_rank_of(std::size_t idx) const {
  const lat::LocalCoord c = box_.coord_of(idx);
  return geo_->site_id(
      geo_->wrap({c.x + box_.ox, c.y + box_.oy, c.z + box_.oz, c.sub}));
}

void KmcModel::images_of_global(std::int64_t gid,
                                std::vector<std::size_t>& out) const {
  out.clear();
  const lat::SiteCoord g = geo_->site_coord(gid);
  // Representatives of each axis coordinate within [-halo, l+halo).
  auto reps = [&](int gc, int origin, int len, int n, int* buf) {
    int cnt = 0;
    // Candidate local coords differ by multiples of the box period; start
    // from the smallest representative >= -halo.
    int base = (gc - origin) % n;
    while (base - n >= -box_.halo) base -= n;
    while (base < -box_.halo) base += n;
    for (int c = base; c < len + box_.halo && cnt < 4; c += n) {
      buf[cnt++] = c;
    }
    return cnt;
  };
  int xs[4], ys[4], zs[4];
  const int nx = reps(g.x, box_.ox, box_.lx, geo_->nx(), xs);
  const int ny = reps(g.y, box_.oy, box_.ly, geo_->ny(), ys);
  const int nz = reps(g.z, box_.oz, box_.lz, geo_->nz(), zs);
  for (int iz = 0; iz < nz; ++iz) {
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        out.push_back(box_.entry_index({xs[ix], ys[iy], zs[iz], g.sub}));
      }
    }
  }
}

void KmcModel::set_state_global(std::int64_t gid, SiteState s) {
  std::vector<std::size_t> images;
  images_of_global(gid, images);
  for (std::size_t i : images) set_state(i, s);
}

bool KmcModel::in_storage_global(std::int64_t gid) const {
  std::vector<std::size_t> images;
  images_of_global(gid, images);
  return !images.empty();
}

void KmcModel::check_stencil(std::size_t idx) const {
  if (stencil_in_storage_[idx] == 0) {
    throw std::out_of_range("KmcModel: the cutoff stencil of entry " +
                            std::to_string(idx) +
                            " leaves this rank's storage");
  }
}

double KmcModel::rho_at(std::size_t idx, int center_type) const {
  check_stencil(idx);
  const int sub = static_cast<int>(idx & 1);
  const auto& deltas = deltas_[sub];
  double rho = 0.0;
  for (std::size_t k = 0; k < deltas.size(); ++k) {
    const SiteState s = sites_[idx + static_cast<std::size_t>(deltas[k])];
    if (!is_atom(s)) continue;
    rho += f_shell(sub, center_type, static_cast<int>(s), k);
  }
  return rho;
}

double KmcModel::pair_energy_at(std::size_t idx, std::size_t exclude,
                                int center_type) const {
  check_stencil(idx);
  const int sub = static_cast<int>(idx & 1);
  const auto& deltas = deltas_[sub];
  double e = 0.0;
  for (std::size_t k = 0; k < deltas.size(); ++k) {
    const std::size_t ni = idx + static_cast<std::size_t>(deltas[k]);
    if (ni == exclude) continue;
    const SiteState s = sites_[ni];
    if (!is_atom(s)) continue;
    e += phi_shell(sub, center_type, static_cast<int>(s), k);
  }
  return e;
}

KmcModel::CentreSums KmcModel::centre_sums(std::size_t idx, int t,
                                            std::size_t partner) const {
  check_stencil(idx);
  const int sub = static_cast<int>(idx & 1);
  const auto& deltas = deltas_[sub];
  const std::size_t n_off = deltas.size();
  const double* f_row = f_cache_[sub].data();
  const double* phi_row = phi_cache_[sub].data();
  CentreSums out;
  for (std::size_t k = 0; k < n_off; ++k) {
    const std::size_t ni = idx + static_cast<std::size_t>(deltas[k]);
    const SiteState s = sites_[ni];
    if (!is_atom(s)) continue;
    const std::size_t at = pair_of(t, static_cast<int>(s)) * n_off + k;
    out.rho += f_row[at];
    if (ni == partner) {
      out.partner_rho = f_row[at];
      continue;
    }
    out.pair += phi_row[at];
  }
  return out;
}

double KmcModel::exchange_dE(std::size_t vac_idx, std::size_t atom_idx) const {
  // Local energy of the hopping atom before (at atom_idx) and after (at
  // vac_idx, with atom_idx now empty): embedding + pair terms. On-lattice
  // positions make all distances ideal-lattice distances. One stencil walk
  // per centre adds ρ and the pair sum side by side, each in the order of
  // rho_at / pair_energy_at, so both are those functions' bits.
  const int t = static_cast<int>(sites_[atom_idx]);
  const auto& embed = tables_->embed_of(t);
  const CentreSums before = centre_sums(atom_idx, t, static_cast<std::size_t>(-1));
  // After the swap the atom sits at vac_idx with atom_idx empty: ρ at
  // vac_idx still counts the atom at its old position, so that one
  // contribution comes off explicitly, and the pair sum skips it.
  const CentreSums after = centre_sums(vac_idx, t, atom_idx);
  const double e_before = embed.value(before.rho) + before.pair;
  const double e_after = embed.value(after.rho - after.partner_rho) + after.pair;
  return e_after - e_before;
}

double KmcModel::rate(double dE) const {
  const double barrier =
      std::max(cfg_.migration_barrier + 0.5 * dE, cfg_.min_barrier);
  return cfg_.prefactor * std::exp(-barrier / kT_);
}

std::size_t KmcModel::count_owned_vacancies() const {
  std::size_t n = 0;
  for (std::size_t i : owned_) {
    if (sites_[i] == SiteState::Vacancy) ++n;
  }
  return n;
}

std::vector<std::int64_t> KmcModel::owned_vacancy_sites() const {
  std::vector<std::int64_t> out;
  for (std::size_t i : owned_) {
    if (sites_[i] == SiteState::Vacancy) out.push_back(site_rank_of(i));
  }
  return out;
}

std::size_t KmcModel::memory_bytes() const {
  std::size_t b = sites_.capacity() * sizeof(SiteState);
  b += flips_.capacity() * sizeof(std::size_t);
  b += owned_.capacity() * sizeof(std::size_t);
  b += owned_ordinal_.capacity() * sizeof(std::uint32_t);
  b += stencil_in_storage_.capacity() * sizeof(std::uint8_t);
  for (int sub = 0; sub <= 1; ++sub) {
    b += offsets_[sub].capacity() * sizeof(lat::SiteOffset);
    b += deltas_[sub].capacity() * sizeof(std::int64_t);
    b += invalidation_[sub].capacity() * sizeof(ShellOffset);
  }
  return b;
}

}  // namespace mmd::kmc
