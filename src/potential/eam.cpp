#include "potential/eam.h"

#include <cmath>
#include <stdexcept>

#include "lattice/neighbor_offsets.h"

namespace mmd::pot {

namespace {

/// Lorentz-Berthelot-style mixing for the cross-species interaction.
EamSpeciesParams mix(const EamSpeciesParams& a, const EamSpeciesParams& b) {
  EamSpeciesParams m;
  m.pair_D = std::sqrt(a.pair_D * b.pair_D);
  m.pair_a = 0.5 * (a.pair_a + b.pair_a);
  m.r0 = 0.5 * (a.r0 + b.r0);
  m.dens_fe = std::sqrt(a.dens_fe * b.dens_fe);
  m.dens_beta = 0.5 * (a.dens_beta + b.dens_beta);
  m.emb_E = 0.5 * (a.emb_E + b.emb_E);
  m.rho_e = 0.5 * (a.rho_e + b.rho_e);
  return m;
}

EamSpeciesParams iron_params() {
  return EamSpeciesParams{};  // defaults are the Fe-like values
}

EamSpeciesParams copper_params() {
  EamSpeciesParams p;
  p.pair_D = 0.34;     // Cu is softer than Fe
  p.pair_a = 1.35;
  p.r0 = 2.556;        // Cu FCC 1NN distance
  p.dens_fe = 0.85;
  p.dens_beta = 2.2;
  p.emb_E = 1.20;
  return p;
}

}  // namespace

EamModel::EamModel(std::vector<EamSpeciesParams> sp, double cutoff)
    : species_(std::move(sp)), cutoff_(cutoff), r_switch_(0.8 * cutoff) {
  if (species_.empty()) throw std::invalid_argument("EamModel: no species");
  const auto n = species_.size();
  mixed_.resize(n * (n + 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      mixed_[j * (j + 1) / 2 + i] = mix(species_[i], species_[j]);
    }
  }
}

EamModel EamModel::iron(double a, double cutoff) {
  EamModel m({iron_params()}, cutoff);
  m.species_[0].rho_e = m.perfect_rho(0, a);
  m.mixed_[0].rho_e = m.species_[0].rho_e;
  return m;
}

EamModel EamModel::iron_copper(double a, double cutoff) {
  EamModel m({iron_params(), copper_params()}, cutoff);
  for (int s = 0; s < 2; ++s) {
    m.species_[static_cast<std::size_t>(s)].rho_e = m.perfect_rho(s, a);
  }
  return m;
}

std::size_t EamModel::pair_index(int si, int sj) const {
  auto lo = static_cast<std::size_t>(std::min(si, sj));
  auto hi = static_cast<std::size_t>(std::max(si, sj));
  return hi * (hi + 1) / 2 + lo;
}

double EamModel::switch_fn(double r) const {
  if (r <= r_switch_) return 1.0;
  if (r >= cutoff_) return 0.0;
  const double t = (r - r_switch_) / (cutoff_ - r_switch_);
  return 1.0 + t * t * t * (-10.0 + t * (15.0 - 6.0 * t));
}

double EamModel::dswitch_fn(double r) const {
  if (r <= r_switch_ || r >= cutoff_) return 0.0;
  const double w = cutoff_ - r_switch_;
  const double t = (r - r_switch_) / w;
  return t * t * (-30.0 + t * (60.0 - 30.0 * t)) / w;
}

double EamModel::phi(int si, int sj, double r) const {
  const auto& p = mixed_[pair_index(si, sj)];
  const double e1 = std::exp(-p.pair_a * (r - p.r0));
  return p.pair_D * (e1 * e1 - 2.0 * e1) * switch_fn(r);
}

double EamModel::dphi(int si, int sj, double r) const {
  const auto& p = mixed_[pair_index(si, sj)];
  const double e1 = std::exp(-p.pair_a * (r - p.r0));
  const double morse = p.pair_D * (e1 * e1 - 2.0 * e1);
  const double dmorse = p.pair_D * (-2.0 * p.pair_a) * (e1 * e1 - e1);
  return dmorse * switch_fn(r) + morse * dswitch_fn(r);
}

double EamModel::f(int si, int sj, double r) const {
  const auto& p = mixed_[pair_index(si, sj)];
  return p.dens_fe * std::exp(-p.dens_beta * (r - p.r0)) * switch_fn(r);
}

double EamModel::df(int si, int sj, double r) const {
  const auto& p = mixed_[pair_index(si, sj)];
  const double g = p.dens_fe * std::exp(-p.dens_beta * (r - p.r0));
  return -p.dens_beta * g * switch_fn(r) + g * dswitch_fn(r);
}

double EamModel::embed(int s, double rho) const {
  const auto& p = species_[static_cast<std::size_t>(s)];
  // F(rho) = -E sqrt(rho/rho_e); below rho_min, switch to the quadratic with
  // matching value and slope so F' stays finite at rho -> 0.
  const double rho_min = 1e-3 * p.rho_e;
  if (rho >= rho_min) return -p.emb_E * std::sqrt(rho / p.rho_e);
  const double fm = -p.emb_E * std::sqrt(rho_min / p.rho_e);
  const double dm = -p.emb_E / (2.0 * std::sqrt(rho_min * p.rho_e));
  // Quadratic q(rho) = A rho^2 + B rho with q(rho_min)=fm, q'(rho_min)=dm.
  const double A = (dm * rho_min - fm) / (rho_min * rho_min);
  const double B = dm - 2.0 * A * rho_min;
  return A * rho * rho + B * rho;
}

double EamModel::dembed(int s, double rho) const {
  const auto& p = species_[static_cast<std::size_t>(s)];
  const double rho_min = 1e-3 * p.rho_e;
  if (rho >= rho_min) return -p.emb_E / (2.0 * std::sqrt(rho * p.rho_e));
  const double fm = -p.emb_E * std::sqrt(rho_min / p.rho_e);
  const double dm = -p.emb_E / (2.0 * std::sqrt(rho_min * p.rho_e));
  const double A = (dm * rho_min - fm) / (rho_min * rho_min);
  const double B = dm - 2.0 * A * rho_min;
  return 2.0 * A * rho + B;
}

double EamModel::perfect_rho(int s, double a) const {
  double rho = 0.0;
  for (const auto& o : lat::bcc_neighbor_offsets(a, cutoff_, 0)) {
    rho += f(s, s, std::sqrt(o.dist2));
  }
  return rho;
}

EamTableSet EamTableSet::build(const EamModel& model, int segments) {
  EamTableSet t;
  t.num_species = model.num_species();
  t.cutoff = model.cutoff();
  t.r_min = model.r_min();
  const auto n = static_cast<std::size_t>(t.num_species);
  t.pairs.resize(n * (n + 1) / 2);
  for (int i = 0; i < t.num_species; ++i) {
    for (int j = i; j < t.num_species; ++j) {
      auto& p = t.pairs[t.pair_index(i, j)];
      p.phi = CompactTable::build(
          [&](double r) { return model.phi(i, j, r); }, t.r_min, t.cutoff, segments);
      p.f = CompactTable::build(
          [&](double r) { return model.f(i, j, r); }, t.r_min, t.cutoff, segments);
    }
    // Headroom above the perfect-crystal density: cascade cores compress the
    // local environment well past equilibrium.
    const double rho_max = 4.0 * model.perfect_rho(i, 2.855);
    t.embed.push_back(CompactTable::build(
        [&](double rho) { return model.embed(i, rho); }, 0.0, rho_max, segments));
  }
  t.phi_trad = t.pairs[0].phi.to_coefficients();
  t.f_trad = t.pairs[0].f.to_coefficients();
  t.embed_trad = t.embed[0].to_coefficients();
  return t;
}

std::size_t EamTableSet::compact_bytes() const {
  std::size_t b = 0;
  for (const auto& p : pairs) b += p.phi.bytes() + p.f.bytes();
  for (const auto& e : embed) b += e.bytes();
  return b;
}

}  // namespace mmd::pot
