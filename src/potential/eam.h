#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "lattice/atom.h"
#include "potential/spline.h"

namespace mmd::pot {

/// Parameters of the analytic EAM used as a stand-in for the tabulated Fe /
/// Fe-Cu potentials of the paper (see DESIGN.md §2, substitution table):
///   pair      phi(r) = D * (e^{-2 a (r-r0)} - 2 e^{-a (r-r0)}) * S(r)
///   density   f(r)   = f_e * e^{-beta (r-r0)} * S(r)
///   embedding F(rho) = -E_emb * sqrt(rho / rho_e)
/// where S(r) is a quintic smoothstep switching the interaction off between
/// r_switch and the cutoff. The paper's optimizations act on the table
/// machinery, not on potential coefficients, so any smooth EAM that keeps a
/// BCC crystal metastable at a = 2.855 A preserves the studied behaviour.
struct EamSpeciesParams {
  double pair_D = 0.40;       ///< Morse well depth [eV]
  double pair_a = 1.40;       ///< Morse stiffness [1/A]
  double r0 = 2.4725;         ///< Morse minimum ~ BCC 1NN distance [A]
  double dens_fe = 1.0;       ///< density prefactor
  double dens_beta = 2.0;     ///< density decay [1/A]
  double emb_E = 1.50;        ///< embedding scale [eV]
  double rho_e = 11.0;        ///< reference density (set by calibrate())
};

/// Full EAM model: one or two species with per-pair pair/density functions
/// and per-species embedding. The Fe-Cu alloy instance carries the three
/// kinds of pair and density interactions the paper describes (Fe-Fe, Cu-Cu,
/// Fe-Cu) plus two embedding functions.
class EamModel {
 public:
  /// Pure iron (the paper's primary material), calibrated so rho_e equals the
  /// perfect-BCC host density at lattice constant `a`.
  static EamModel iron(double a = 2.855, double cutoff = 5.0);

  /// Fe-Cu alloy (paper §2.1.2's multi-table configuration).
  static EamModel iron_copper(double a = 2.855, double cutoff = 5.0);

  int num_species() const { return static_cast<int>(species_.size()); }
  double cutoff() const { return cutoff_; }
  double r_switch() const { return r_switch_; }
  double r_min() const { return r_min_; }

  /// Pair potential and its derivative between species si and sj at
  /// separation r [A].
  double phi(int si, int sj, double r) const;
  double dphi(int si, int sj, double r) const;

  /// Electron-density contribution (and derivative) of an sj neighbor at an
  /// si atom.
  double f(int si, int sj, double r) const;
  double df(int si, int sj, double r) const;

  /// Embedding energy and derivative for species s at host density rho.
  double embed(int s, double rho) const;
  double dembed(int s, double rho) const;

  /// Host electron density of a perfect BCC crystal of species s.
  double perfect_rho(int s, double a) const;

  const EamSpeciesParams& species(int s) const {
    return species_[static_cast<std::size_t>(s)];
  }

 private:
  EamModel(std::vector<EamSpeciesParams> sp, double cutoff);

  /// Index into pair-interaction parameter storage (symmetric).
  std::size_t pair_index(int si, int sj) const;
  double switch_fn(double r) const;
  double dswitch_fn(double r) const;

  std::vector<EamSpeciesParams> species_;
  std::vector<EamSpeciesParams> mixed_;  ///< per unordered pair
  double cutoff_;
  double r_switch_;
  /// Lower edge of the tabulated domain [A]. Deep enough that the repulsive
  /// wall (phi(0.4 A) ~ 130 eV) stops cascade atoms up to ~100 eV instead of
  /// letting them tunnel through a clamped table.
  double r_min_ = 0.4;
};

/// The full interpolation-table family of an EAM model: one pair+density
/// table set per species pair and one embedding table per species — the three
/// tables the paper names (electron cloud density, pair potential, embedding
/// potential) for pure Fe, and 8 compact tables for Fe-Cu, whose combined
/// size exceeds the 64 KB local store (paper: "we only load the compacted
/// table for the element with the highest content").
///
/// For the primary (species 0-0) interaction the traditional 5000x7
/// coefficient form is also kept, so the slave-core kernels can run the
/// paper's un-optimized baseline (Fig. 9's "TraditionalTable" bars).
struct EamTableSet {
  struct PairTables {
    CompactTable phi;
    CompactTable f;

    /// phi'(r) and f'(r) from ONE segment lookup. Relies on the shared-grid
    /// invariant: build() and tables_from_setfl() sample a pair's phi and f
    /// on the same (r_min, cutoff, segments) grid, so one segment index and
    /// one parameter t serve both tables, each read from its samples and
    /// node-derivative plane. Each result equals that table's own
    /// derivative(r) bit for bit in builds that do not contract a*b+c into
    /// FMA (the default x86-64 target).
    void derivatives(double r, double* dphi, double* df) const {
      const int i = phi.segment_of(r);
      const double t = phi.param(r, i);
      phi.eval_segment(i, t, nullptr, dphi);
      f.eval_segment(i, t, nullptr, df);
    }
  };
  std::vector<PairTables> pairs;   ///< indexed by symmetric pair index
  std::vector<CompactTable> embed; ///< per species
  CoefficientTable phi_trad;       ///< species 0-0, traditional form
  CoefficientTable f_trad;
  CoefficientTable embed_trad;
  int num_species = 0;
  double cutoff = 0.0;
  double r_min = 0.0;

  static EamTableSet build(const EamModel& model,
                           int segments = CoefficientTable::kDefaultSegments);

  std::size_t pair_index(int si, int sj) const {
    auto lo = static_cast<std::size_t>(std::min(si, sj));
    auto hi = static_cast<std::size_t>(std::max(si, sj));
    return hi * (hi + 1) / 2 + lo;
  }
  std::size_t compact_bytes() const;

  const PairTables& pair(int si, int sj) const { return pairs[pair_index(si, sj)]; }
  const CompactTable& phi(int si, int sj) const { return pair(si, sj).phi; }
  const CompactTable& f(int si, int sj) const { return pair(si, sj).f; }
  const CompactTable& embed_of(int s) const { return embed[static_cast<std::size_t>(s)]; }
};

}  // namespace mmd::pot
