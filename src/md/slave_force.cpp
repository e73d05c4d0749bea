#include "md/slave_force.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "md/slave_force_kernels.h"
#include "potential/table_access.h"
#include "telemetry/session.h"
#include "util/timer.h"

namespace mmd::md {

std::string to_string(AccelStrategy s) {
  switch (s) {
    case AccelStrategy::TraditionalTable: return "TraditionalTable";
    case AccelStrategy::CompactedTable: return "CompactedTable";
    case AccelStrategy::CompactedReuse: return "CompactedTable+DataReuse";
    case AccelStrategy::CompactedReuseDouble:
      return "CompactedTable+DataReuse+DoubleBuffer";
  }
  return "?";
}

bool SlaveForceCompute::simd_supported() { return detail::simd_available(); }

SlaveForceCompute::SlaveForceCompute(const pot::EamTableSet& tables,
                                     sw::SlaveCorePool& pool,
                                     AccelStrategy strategy)
    : tables_(&tables), pool_(&pool), strategy_(strategy),
      simd_(detail::simd_available()), compute_s_(pool.size(), 0.0) {
  if (tables.num_species != 1) {
    throw std::invalid_argument(
        "SlaveForceCompute: the slave-core path handles the single-species "
        "(Fe) configuration; use the reference path for alloys");
  }
}

void SlaveForceCompute::reset_stats() {
  pool_->reset_stats();
  std::fill(compute_s_.begin(), compute_s_.end(), 0.0);
  table_fallbacks_.store(0, std::memory_order_relaxed);
}

double SlaveForceCompute::compute_seconds() const {
  double m = 0.0;
  for (double c : compute_s_) m = std::max(m, c);
  return m;
}

double SlaveForceCompute::modeled_time() const {
  double worst = 0.0;
  for (std::size_t c = 0; c < pool_->size(); ++c) {
    const double dma = pool_->core(c).dma->modeled_time();
    const double comp = compute_s_[c];
    const double t = strategy_ == AccelStrategy::CompactedReuseDouble
                         ? std::max(dma, comp)
                         : dma + comp;
    worst = std::max(worst, t);
  }
  return worst;
}

void SlaveForceCompute::pack(const lat::LatticeNeighborList& lnl,
                             bool with_fprime) {
  planes_.reset(lnl.box());
  planes_.pack_positions(lnl);
  if (with_fprime) refresh_fprime(lnl);
}

void SlaveForceCompute::refresh_fprime(const lat::LatticeNeighborList& lnl) {
  const auto& embed = tables_->embed_of(0);
  double* fp = planes_.fprime();
  for (std::size_t i = 0; i < lnl.size(); ++i) {
    const lat::AtomEntry& e = lnl.entry(i);
    fp[planes_.slot(i)] = e.is_atom() ? embed.derivative(e.rho) : 0.0;
  }
}

void SlaveForceCompute::refresh_fprime_owned(const lat::LatticeNeighborList& lnl) {
  const auto& embed = tables_->embed_of(0);
  double* fp = planes_.fprime();
  for (std::size_t i : lnl.owned_indices()) {
    const lat::AtomEntry& e = lnl.entry(i);
    fp[planes_.slot(i)] = e.is_atom() ? embed.derivative(e.rho) : 0.0;
  }
}

void SlaveForceCompute::refresh_fprime_ghosts(const lat::LatticeNeighborList& lnl) {
  const auto& embed = tables_->embed_of(0);
  double* fp = planes_.fprime();
  for (std::size_t i : lnl.ghost_indices()) {
    const lat::AtomEntry& e = lnl.entry(i);
    fp[planes_.slot(i)] = e.is_atom() ? embed.derivative(e.rho) : 0.0;
  }
}

template <SlaveForceCompute::Stage S, bool Traditional>
void SlaveForceCompute::sweep(
    lat::LatticeNeighborList& lnl, const lat::CellRegion& region,
    std::vector<std::conditional_t<S == Stage::Rho, double, util::Vec3>>& out) {
  using Out = std::conditional_t<S == Stage::Rho, double, util::Vec3>;
  constexpr bool kFused = S == Stage::FusedForce;
  // Planes a pass stages through the local store: x/y/z/id always, the
  // F'(rho) plane only when the stage's kernel reads it. Order matters —
  // the window pointer array below is indexed the same way.
  constexpr int kPlanes = (S == Stage::DensForce || kFused) ? 5 : 4;
  constexpr std::size_t kTailPad = 4;  ///< zeroed doubles per plane, so
                                       ///< full-width remainder loads stay
                                       ///< inside the allocation
  const lat::LocalBox box = lnl.box();
  const int h = box.halo;
  const int wy = 2 * h + 1;
  const int rows_per_window = wy * wy;
  // No zero-fill: every region entry is overwritten by the result DMA puts
  // below, and entries outside the swept regions are never read.
  out.resize(lnl.size());
  if (region.empty()) return;
  const bool reuse = strategy_ == AccelStrategy::CompactedReuse ||
                     strategy_ == AccelStrategy::CompactedReuseDouble;
  // Primary table of the sweep: phi for the pair-interaction stages, f for
  // the density ones. The fused sweep additionally needs f as secondary.
  const pot::CompactTable& primary = (S == Stage::PairForce || kFused)
                                         ? tables_->phi(0, 0)
                                         : tables_->f(0, 0);
  const pot::CompactTable& secondary = tables_->f(0, 0);
  const pot::CoefficientTable& trad_primary = (S == Stage::PairForce || kFused)
                                                  ? tables_->phi_trad
                                                  : tables_->f_trad;
  const pot::CoefficientTable& trad_secondary = tables_->f_trad;
  const double cutoff = tables_->cutoff;
  const double cut2 = cutoff * cutoff;
  const double r_min = tables_->r_min;

  const int ry = region.y1 - region.y0;
  const int rx = region.x1 - region.x0;
  const std::size_t total_rows = static_cast<std::size_t>(ry) *
                                 static_cast<std::size_t>(region.z1 - region.z0);

  // Main-memory plane sources, in window-plane order.
  const std::size_t num_cells = planes_.cells();
  const double* mains[5] = {planes_.x(), planes_.y(), planes_.z(),
                            planes_.id(), planes_.fprime()};

  // One slab of owned (y,z) rows per core; cores without rows are not invoked.
  pool_->parallel_for_chunks(total_rows, [&](sw::SlaveCtx& ctx,
                                             std::size_t row_begin,
                                             std::size_t row_end) {
    util::Timer timer;
    sw::LocalStore& store = *ctx.local_store;
    sw::DmaEngine& dma = *ctx.dma;

    // Bytes a window of `cand` central cells needs: kPlanes padded planes
    // (64-byte aligned, hence the per-plane slack) of 2 sublattices x
    // rows_per_window rows x (cand + 2h) cells.
    auto window_bytes = [&](int cand) {
      const std::size_t doubles =
          2 * static_cast<std::size_t>(rows_per_window) *
              static_cast<std::size_t>(cand + 2 * h) +
          kTailPad;
      return static_cast<std::size_t>(kPlanes) *
             (doubles * sizeof(double) + 64);
    };

    // Table residency: compacted tables are staged whole (paper: "load the
    // whole compacted table into the local store at one time"); the
    // traditional 273 KB table can never fit and stays in main memory. The
    // fused sweep stages BOTH compact tables when they fit next to a minimal
    // window; otherwise the secondary stays in main memory and each lookup
    // DMAs its 6-sample span (counted as a fallback below).
    // Smallest footprint a one-cell block needs next to the staged tables;
    // a table is staged resident only when that much room is left over.
    const std::size_t min_window_bytes =
        window_bytes(1) + 2 * sizeof(Out) + 2048;
    const bool want_primary =
        !Traditional &&
        store.remaining() >= primary.bytes() + min_window_bytes;
    bool want_secondary = false;
    if constexpr (kFused) {
      want_secondary = want_primary &&
                       store.remaining() >=
                           primary.bytes() + secondary.bytes() + min_window_bytes;
    }
    pot::CompactTableAccess primary_access(primary, store, dma, want_primary);
    pot::CompactTableAccess secondary_access(secondary, store, dma, want_secondary);
    pot::CoefficientTableAccess trad_primary_access(trad_primary, dma);
    pot::CoefficientTableAccess trad_secondary_access(trad_secondary, dma);
    if constexpr (!Traditional) {
      bool fallback = !primary_access.resident();
      if constexpr (kFused) fallback = fallback || !secondary_access.resident();
      if (fallback) table_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }

    // The vector kernels index resident padded tables with gathers; any
    // sweep that cannot keep a needed table resident (or runs the
    // traditional format) takes the scalar loop below instead.
    bool use_simd = false;
    if constexpr (!Traditional) {
      use_simd = simd_ && primary_access.resident();
      if constexpr (kFused) use_simd = use_simd && secondary_access.resident();
    }
    detail::SimdTable prim_tab, sec_tab;
    if (use_simd) {
      prim_tab = {primary_access.padded(), primary.x_min(), primary.dx(),
                  primary.xmin_over_dx(), primary.segments() - 1};
      if constexpr (kFused) {
        sec_tab = {secondary_access.padded(), secondary.x_min(),
                   secondary.dx(), secondary.xmin_over_dx(),
                   secondary.segments() - 1};
      }
    }

    // Block width: the largest bx whose window + output fit what is left of
    // the 64 KB store.
    const std::size_t budget = store.remaining() > 2048 ? store.remaining() - 2048 : 0;
    int bx = 0;
    for (int cand = 1; cand <= rx; ++cand) {
      const std::size_t out_bytes = static_cast<std::size_t>(cand) * 2 * sizeof(Out);
      if (window_bytes(cand) + out_bytes <= budget) bx = cand; else break;
    }
    if (bx == 0) {
      throw std::runtime_error(
          "SlaveForceCompute: local store too small for even a one-cell block");
    }
    const int row_cells = bx + 2 * h;
    const std::size_t plane_len =
        2 * static_cast<std::size_t>(rows_per_window) *
            static_cast<std::size_t>(row_cells) +
        kTailPad;
    double* win[5] = {};
    for (int p = 0; p < kPlanes; ++p) {
      win[p] = store.allocate_array<double>(plane_len, 64);
    }
    Out* out_buf = store.allocate_array<Out>(static_cast<std::size_t>(bx) * 2);
    bool alloc_ok = out_buf != nullptr;
    for (int p = 0; p < kPlanes; ++p) alloc_ok = alloc_ok && win[p] != nullptr;
    if (!alloc_ok) {
      throw std::runtime_error("SlaveForceCompute: local store allocation failed");
    }
    // Zero the planes once: over-reads between rows and into the tail pad
    // (masked SIMD lanes only) then read defined values.
    for (int p = 0; p < kPlanes; ++p) {
      std::memset(win[p], 0, plane_len * sizeof(double));
    }

    // Per-sublattice stencil, as absolute int32 offsets into a window plane:
    // neighbor slot = wdeltas[sub][j] + xi, central slot = cbase[sub] + xi.
    const int crow = h * wy + h;
    std::vector<std::int32_t> wdeltas[2];
    std::int32_t cbase[2];
    for (int sub = 0; sub <= 1; ++sub) {
      cbase[sub] = static_cast<std::int32_t>(
          (sub * rows_per_window + crow) * row_cells + h);
      const auto& offs = lnl.offsets(sub);
      wdeltas[sub].reserve(offs.size());
      for (const auto& o : offs) {
        wdeltas[sub].push_back(static_cast<std::int32_t>(
            (o.to_sub * rows_per_window + crow + o.dz * wy + o.dy) * row_cells +
            h + o.dx));
      }
    }

    std::vector<sw::DmaEngine::Run> runs;
    runs.reserve(static_cast<std::size_t>(kPlanes) * 2 *
                 static_cast<std::size_t>(rows_per_window));
    auto window_row = [&](int p, int sb, int rr) {
      return win[p] + (static_cast<std::size_t>(sb) * rows_per_window + rr) *
                          static_cast<std::size_t>(row_cells);
    };
    auto main_row = [&](int p, int sb, int x, int cy, int cz, int rr) {
      const int dy = rr % wy - h;
      const int dz = rr / wy - h;
      const std::size_t cell0 =
          box.entry_index({x, cy + dy, cz + dz, 0}) >> 1;
      return mains[p] + static_cast<std::size_t>(sb) * num_cells + cell0;
    };

    for (std::size_t row = row_begin; row < row_end; ++row) {
      const int cy = region.y0 + static_cast<int>(row % static_cast<std::size_t>(ry));
      const int cz = region.z0 + static_cast<int>(row / static_cast<std::size_t>(ry));
      bool window_valid = false;
      for (int x0 = region.x0; x0 < region.x1; x0 += bx) {
        const int bw = std::min(bx, region.x1 - x0);
        // --- window transfer (one batched DMA regardless of plane count) ---
        runs.clear();
        if (reuse && window_valid) {
          // Slide each plane row left by bx cells locally, then DMA only the
          // new tail slice (the paper's ghost-data reuse).
          const std::size_t keep = static_cast<std::size_t>(2 * h);
          for (int p = 0; p < kPlanes; ++p) {
            for (int sb = 0; sb < 2; ++sb) {
              for (int rr = 0; rr < rows_per_window; ++rr) {
                double* wrow = window_row(p, sb, rr);
                std::memmove(wrow, wrow + bx, keep * sizeof(double));
                runs.push_back({wrow + keep,
                                main_row(p, sb, x0 + h, cy, cz, rr),
                                static_cast<std::size_t>(bw) * sizeof(double)});
              }
            }
          }
        } else {
          for (int p = 0; p < kPlanes; ++p) {
            for (int sb = 0; sb < 2; ++sb) {
              for (int rr = 0; rr < rows_per_window; ++rr) {
                runs.push_back({window_row(p, sb, rr),
                                main_row(p, sb, x0 - h, cy, cz, rr),
                                static_cast<std::size_t>(bw + 2 * h) *
                                    sizeof(double)});
              }
            }
          }
          window_valid = true;
        }
        dma.get_batched(runs.data(), runs.size());

        // --- compute owned entries of the block ---
        timer.reset();
        if (use_simd) {
          detail::BlockArgs a;
          a.w.x = win[0];
          a.w.y = win[1];
          a.w.z = win[2];
          a.w.id = win[3];
          a.w.fprime = kPlanes == 5 ? win[4] : nullptr;
          a.central_base[0] = cbase[0];
          a.central_base[1] = cbase[1];
          a.deltas[0] = wdeltas[0].data();
          a.deltas[1] = wdeltas[1].data();
          a.num_deltas[0] = static_cast<std::int32_t>(wdeltas[0].size());
          a.num_deltas[1] = static_cast<std::int32_t>(wdeltas[1].size());
          a.cut2 = cut2;
          a.r_min = r_min;
          a.bw = bw;
          if constexpr (S == Stage::Rho) {
            detail::simd_rho_block(a, prim_tab, out_buf);
          } else if constexpr (S == Stage::PairForce) {
            detail::simd_pair_block(a, prim_tab, out_buf);
          } else if constexpr (S == Stage::DensForce) {
            detail::simd_dens_block(a, prim_tab, out_buf);
          } else {
            detail::simd_fused_block(a, prim_tab, sec_tab, out_buf);
          }
        } else {
          const double* px = win[0];
          const double* py = win[1];
          const double* pz = win[2];
          const double* pid = win[3];
          const double* pfp = kPlanes == 5 ? win[4] : nullptr;
          for (int xi = 0; xi < bw; ++xi) {
            for (int sub = 0; sub <= 1; ++sub) {
              const std::int32_t c = cbase[sub] + xi;
              Out acc{};
              if (pid[c] >= 0.0) {
                const double cx = px[c], cyy = py[c], czz = pz[c];
                const double cfp = pfp != nullptr ? pfp[c] : 0.0;
                for (const std::int32_t d : wdeltas[sub]) {
                  const std::int32_t n = d + xi;
                  if (pid[n] < 0.0) continue;
                  const double dx = px[n] - cx, dy2 = py[n] - cyy,
                               dz2 = pz[n] - czz;
                  const double r2 = dx * dx + dy2 * dy2 + dz2 * dz2;
                  if (r2 > cut2 || r2 == 0.0) continue;
                  const double r = std::max(std::sqrt(r2), r_min);
                  if constexpr (S == Stage::Rho) {
                    double val = 0.0;
                    if constexpr (Traditional) {
                      trad_primary_access.eval(r, &val, nullptr);
                    } else {
                      primary_access.eval(r, &val, nullptr);
                    }
                    acc += val;
                  } else {
                    double pder = 0.0;
                    if constexpr (Traditional) {
                      trad_primary_access.eval(r, nullptr, &pder);
                    } else {
                      primary_access.eval(r, nullptr, &pder);
                    }
                    double s;
                    if constexpr (S == Stage::PairForce) {
                      s = pder / r;
                    } else if constexpr (S == Stage::DensForce) {
                      s = (cfp + pfp[n]) * pder / r;
                    } else {  // FusedForce: pder is phi'; also evaluate f'.
                      double fder = 0.0;
                      if constexpr (Traditional) {
                        trad_secondary_access.eval(r, nullptr, &fder);
                      } else {
                        secondary_access.eval(r, nullptr, &fder);
                      }
                      s = (pder + (cfp + pfp[n]) * fder) / r;
                    }
                    acc += util::Vec3{dx, dy2, dz2} * s;
                  }
                }
              }
              out_buf[static_cast<std::size_t>(xi) * 2 +
                      static_cast<std::size_t>(sub)] = acc;
            }
          }
        }
        compute_s_[ctx.core_id] += timer.elapsed();

        // --- result transfer ---
        const std::size_t base = box.entry_index({x0, cy, cz, 0});
        dma.put(out.data() + base, out_buf,
                static_cast<std::size_t>(bw) * 2 * sizeof(Out));
      }
    }
  });
}

void SlaveForceCompute::run_scalar_stage(lat::LatticeNeighborList& lnl,
                                         const lat::CellRegion& region,
                                         std::vector<double>& out_rho) {
  const std::uint64_t before = table_fallbacks_.load(std::memory_order_relaxed);
  if (strategy_ == AccelStrategy::TraditionalTable) {
    sweep<Stage::Rho, true>(lnl, region, out_rho);
  } else {
    sweep<Stage::Rho, false>(lnl, region, out_rho);
  }
  fold_fallbacks(before);
}

void SlaveForceCompute::run_vector_stage(lat::LatticeNeighborList& lnl,
                                         Stage stage,
                                         const lat::CellRegion& region,
                                         std::vector<util::Vec3>& out_force) {
  const std::uint64_t before = table_fallbacks_.load(std::memory_order_relaxed);
  const bool trad = strategy_ == AccelStrategy::TraditionalTable;
  switch (stage) {
    case Stage::PairForce:
      trad ? sweep<Stage::PairForce, true>(lnl, region, out_force)
           : sweep<Stage::PairForce, false>(lnl, region, out_force);
      break;
    case Stage::DensForce:
      trad ? sweep<Stage::DensForce, true>(lnl, region, out_force)
           : sweep<Stage::DensForce, false>(lnl, region, out_force);
      break;
    case Stage::FusedForce:
      trad ? sweep<Stage::FusedForce, true>(lnl, region, out_force)
           : sweep<Stage::FusedForce, false>(lnl, region, out_force);
      break;
    case Stage::Rho:
      throw std::logic_error("run_vector_stage: Rho writes a scalar output");
  }
  fold_fallbacks(before);
}

void SlaveForceCompute::force_stages(lat::LatticeNeighborList& lnl,
                                     const lat::CellRegion& region) {
  if (region.empty()) return;
  if (fused_) {
    run_vector_stage(lnl, Stage::FusedForce, region, fpair_stage_);
  } else {
    run_vector_stage(lnl, Stage::PairForce, region, fpair_stage_);
    run_vector_stage(lnl, Stage::DensForce, region, fdens_stage_);
  }
}

void SlaveForceCompute::scatter_forces(
    lat::LatticeNeighborList& lnl,
    std::span<const std::size_t> indices) const {
  if (fused_) {
    for (std::size_t idx : indices) {
      lat::AtomEntry& e = lnl.entry(idx);
      if (e.is_atom()) e.f = fpair_stage_[idx];
    }
  } else {
    for (std::size_t idx : indices) {
      lat::AtomEntry& e = lnl.entry(idx);
      if (e.is_atom()) e.f = fpair_stage_[idx] + fdens_stage_[idx];
    }
  }
}

void SlaveForceCompute::fold_fallbacks(std::uint64_t before) {
  const std::uint64_t fell =
      table_fallbacks_.load(std::memory_order_relaxed) - before;
  if (fell == 0) return;
  // Fold from the rank thread (CPE workers must not touch metrics slots).
  telemetry::count("sw.table.fallback", fell);
  if (!fallback_logged_) {
    fallback_logged_ = true;
    std::fprintf(stderr,
                 "mmd: slave force sweep: compact table(s) exceed the local "
                 "store, using per-segment DMA lookups (%llu core-sweeps)\n",
                 static_cast<unsigned long long>(fell));
  }
}

void SlaveForceCompute::compute_rho(lat::LatticeNeighborList& lnl) {
  pack(lnl, /*with_fprime=*/false);
  run_scalar_stage(lnl, lat::CellRegion::full(lnl.box()), rho_stage_);
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (e.is_atom()) e.rho = rho_stage_[idx];
  }
  complement_runaways_rho(lnl);
  packed_fresh_ = true;
}

void SlaveForceCompute::compute_forces(lat::LatticeNeighborList& lnl) {
  if (packed_fresh_ && planes_.size() == lnl.size()) {
    // Positions have not moved since compute_rho packed them; only F'(rho)
    // changed with the rho ghost exchange.
    refresh_fprime(lnl);
  } else {
    pack(lnl, /*with_fprime=*/true);
  }
  packed_fresh_ = false;
  force_stages(lnl, lat::CellRegion::full(lnl.box()));
  scatter_forces(lnl, lnl.owned_indices());
  complement_runaways_force(lnl);
}

void SlaveForceCompute::compute_forces_interior(lat::LatticeNeighborList& lnl) {
  if (!(packed_fresh_ && planes_.size() == lnl.size())) {
    // Positions moved since the last pack. Stage them WITHOUT F'(rho): the
    // ghost rho it would read is still in flight.
    pack(lnl, /*with_fprime=*/false);
  }
  packed_fresh_ = false;
  // Owned rho is final (compute_rho + run-away complement); ghost slots stay
  // stale — interior windows never read them.
  refresh_fprime_owned(lnl);
  force_stages(lnl, lat::interior_region(lnl.box(), lnl.box().halo));
  scatter_forces(lnl, lnl.owned_interior_indices());
}

void SlaveForceCompute::compute_forces_boundary(lat::LatticeNeighborList& lnl) {
  // The rho exchange has completed: ghost F'(rho) becomes valid now.
  refresh_fprime_ghosts(lnl);
  const lat::LocalBox box = lnl.box();
  std::vector<lat::CellRegion> shell;
  lat::boundary_shell(box, box.halo, shell);
  for (const lat::CellRegion& r : shell) force_stages(lnl, r);
  scatter_forces(lnl, lnl.owned_boundary_indices());
  complement_runaways_force(lnl);
}

// Master-core complement: contributions involving run-away atoms. Run-aways
// are "several millionth of the number of all the atoms" (paper §2.1.1), so
// this scalar pass is negligible next to the slave-core lattice work.
void SlaveForceCompute::complement_runaways_rho(lat::LatticeNeighborList& lnl) const {
  const lat::LocalBox box = lnl.box();
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  const auto& ftab = tables_->f(0, 0);
  // Every chain node (owned or ghost) contributes to owned lattice atoms
  // around its host.
  for (std::size_t host = 0; host < lnl.size(); ++host) {
    for (std::int32_t ri = lnl.entry(host).runaway_head;
         ri != lat::AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
      const lat::RunawayAtom& a = lnl.runaway(ri);
      const lat::LocalCoord hc = box.coord_of(host);
      auto add_to = [&](std::size_t idx) {
        lat::AtomEntry& e = lnl.entry(idx);
        if (!e.is_atom() || !box.owns(box.coord_of(idx))) return;
        const double r2 = (a.r - e.r).norm2();
        if (r2 > cut2 || r2 == 0.0) return;
        e.rho += ftab.value(std::max(std::sqrt(r2), r_min));
      };
      add_to(host);
      for (const auto& o : lnl.offsets(hc.sub)) {
        const lat::LocalCoord nc{hc.x + o.dx, hc.y + o.dy, hc.z + o.dz, o.to_sub};
        if (box.in_storage(nc)) add_to(box.entry_index(nc));
      }
    }
  }
  // Each owned run-away computes its own full density.
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    double rho = 0.0;
    lnl.for_each_neighbor_of_runaway(ri, host, [&](const lat::ParticleView& p) {
      const double r2 = (p.r - a.r).norm2();
      if (r2 > cut2) return;
      rho += ftab.value(std::max(std::sqrt(r2), r_min));
    });
    a.rho = rho;
  });
}

void SlaveForceCompute::complement_runaways_force(lat::LatticeNeighborList& lnl) const {
  const lat::LocalBox box = lnl.box();
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  const auto& phit = tables_->phi(0, 0);
  const auto& ftab = tables_->f(0, 0);
  const auto& embed = tables_->embed_of(0);
  for (std::size_t host = 0; host < lnl.size(); ++host) {
    for (std::int32_t ri = lnl.entry(host).runaway_head;
         ri != lat::AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
      const lat::RunawayAtom& a = lnl.runaway(ri);
      const double fpa = embed.derivative(a.rho);
      const lat::LocalCoord hc = box.coord_of(host);
      auto add_to = [&](std::size_t idx) {
        lat::AtomEntry& e = lnl.entry(idx);
        if (!e.is_atom() || !box.owns(box.coord_of(idx))) return;
        const util::Vec3 d = a.r - e.r;
        const double r2 = d.norm2();
        if (r2 > cut2 || r2 == 0.0) return;
        const double r = std::max(std::sqrt(r2), r_min);
        double dphi, df;
        phit.eval(r, nullptr, &dphi);
        ftab.eval(r, nullptr, &df);
        const double fpe = embed.derivative(e.rho);
        e.f += d * ((dphi + (fpe + fpa) * df) / r);
      };
      add_to(host);
      for (const auto& o : lnl.offsets(hc.sub)) {
        const lat::LocalCoord nc{hc.x + o.dx, hc.y + o.dy, hc.z + o.dz, o.to_sub};
        if (box.in_storage(nc)) add_to(box.entry_index(nc));
      }
    }
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    const double fpa = embed.derivative(a.rho);
    util::Vec3 force{};
    lnl.for_each_neighbor_of_runaway(ri, host, [&](const lat::ParticleView& p) {
      const util::Vec3 d = p.r - a.r;
      const double r2 = d.norm2();
      if (r2 > cut2 || r2 == 0.0) return;
      const double r = std::max(std::sqrt(r2), r_min);
      double dphi, df;
      phit.eval(r, nullptr, &dphi);
      ftab.eval(r, nullptr, &df);
      const double fpp = embed.derivative(p.rho);
      force += d * ((dphi + (fpa + fpp) * df) / r);
    });
    a.f = force;
  });
}

}  // namespace mmd::md
