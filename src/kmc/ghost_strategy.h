#pragma once

namespace mmd::kmc {

/// Ghost-site communication strategies for the sublattice KMC loop.
enum class GhostStrategy {
  /// The SPPARKS/KMCLib pattern (paper Fig. 8b/c): before a sector, GET the
  /// whole ghost shell of the sector from the neighbors; after the sector,
  /// PUT the whole shell back. Static pattern, all sites transferred whether
  /// updated or not.
  Traditional,
  /// The paper's on-demand strategy via two-sided messages: after a sector
  /// only the sites actually modified are sent; the receiver must MPI_Probe
  /// because sources/sizes are dynamic, and every neighbor pair exchanges a
  /// message even when empty (the zero-size handshake the paper criticizes).
  OnDemandTwoSided,
  /// The same strategy via one-sided puts into a window: no empty messages;
  /// one fence (a single barrier) completes each sector's epoch, because
  /// consecutive sectors put into two windows alternately.
  OnDemandOneSided,
};

}  // namespace mmd::kmc
