#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/neighborhood.h"
#include "comm/world.h"
#include "lattice/decomposition.h"
#include "lattice/lattice_neighbor_list.h"

namespace mmd::lat {

/// One ghost entry as it travels in a halo message: the fields a ghost is
/// read for — the owner's position (shifted into the receiver's frame),
/// density, id and species. Velocity and force stay with the owner, so a
/// record is half an AtomEntry.
struct GhostRecord {
  util::Vec3 r;
  double rho = 0.0;
  std::int64_t id = AtomEntry::kUnset;
  Species type = Species::Fe;
  std::int16_t pad16 = 0;
  std::int32_t pad32 = 0;
};
static_assert(sizeof(GhostRecord) == 48);

/// Three-phase (x, then y, then z) face-neighbor ghost exchange for the
/// lattice neighbor list.
///
/// For the regularly distributed lattice points "the communication pattern is
/// static, which can be reused at each time step" (paper §2.1.1): the send
/// and receive entry-index lists are precomputed once. Run-away atoms ride
/// along as variable-length side messages, and run-aways whose nearest
/// lattice point left this rank's subdomain are routed to their new owner
/// during the same three phases (dimension-ordered routing handles edge and
/// corner crossings).
///
/// All paths are nonblocking neighborhood rounds (comm::NeighborhoodExchange):
/// within a phase both sides' receives are posted up front, each side's
/// categories (entries + run-away chains + emigrants, or rho + chain rho) are
/// aggregated into ONE message per peer, and completion is out of order.
/// The phases themselves stay sequential — later axes relay the corner data
/// that earlier axes deposited in the halo.
///
/// Positions are translated by +-L when a message crosses the periodic
/// boundary, which keeps every rank's storage in a continuous local frame.
///
/// A forward payload is packed once: each send-slab entry is written as a
/// GhostRecord straight into the message, which is handed to the peer by
/// move, and the receiver writes the records straight into its halo. The
/// three phases' receive slabs tile the halo, so exchange() overwrites
/// every ghost entry's r, rho, id and type and never resets them first; a
/// ghost's v and f are left as they were (nothing reads them). Ghost chain
/// nodes are returned to the pool and rebuilt from the payload.
class GhostExchange {
 public:
  GhostExchange(LatticeNeighborList& lnl, const DomainDecomposition& dd, int rank);

  /// Refresh the r, rho, id and type of every ghost entry and rebuild the
  /// ghost chains; route `emigrants` (run-aways that left the subdomain,
  /// from rehome_runaways) to their owners.
  void exchange(comm::Comm& comm, std::vector<RunawayAtom> emigrants = {});

  /// A rho refresh whose first (x) phase is in flight: returned by
  /// begin_exchange_rho so the caller can compute interior forces while the
  /// largest phase's messages travel, then finish_exchange_rho.
  class RhoFlight {
   public:
    RhoFlight(RhoFlight&&) = default;
    RhoFlight& operator=(RhoFlight&&) = default;

   private:
    friend class GhostExchange;
    explicit RhoFlight(comm::Comm& comm) : nx(comm) {}
    comm::NeighborhoodExchange nx;
  };

  /// Post the x-phase of a rho refresh (both sides, aggregated, nonblocking)
  /// and return without waiting. Must be paired with finish_exchange_rho on
  /// the same Comm; ghost rho (and ghost-chain rho) is garbage until then.
  RhoFlight begin_exchange_rho(comm::Comm& comm);

  /// Complete the in-flight x phase, then run the y and z phases. After this
  /// every ghost entry and ghost run-away chain carries the owner's rho.
  void finish_exchange_rho(comm::Comm& comm, RhoFlight& flight);

  /// Refresh only the electron density (rho) of ghost entries and ghost
  /// run-away chains. Must be called after an `exchange()` with no chain
  /// mutations in between, so the ghost chain layout still mirrors the
  /// sender's; a receive slab whose chains hold fewer or more nodes than
  /// the sender sent values for throws. Equivalent to begin + finish with
  /// no overlapped compute.
  void exchange_rho(comm::Comm& comm);

  /// Reverse accumulation (the LAMMPS `reverse_comm` pattern, used by the
  /// Newton-third-law force backend): each rank's HALO values flow back to
  /// the owners and are ADDED to the owned entries, phases in reverse
  /// (z, y, x) order so corner contributions route through intermediate
  /// slabs. Only the selected field moves; ghost copies are garbage
  /// afterwards.
  void reverse_accumulate_rho(comm::Comm& comm);
  void reverse_accumulate_force(comm::Comm& comm);

  /// Bytes sent by this rank over ALL ghost traffic so far — full exchanges,
  /// rho-only refreshes, and reverse accumulations — for the weak-scaling
  /// communication split and the telemetry fold.
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Side {
    int peer = 0;                          ///< neighbor rank on this side
    util::Vec3 shift;                      ///< position shift applied when sending
    std::vector<std::size_t> send_idx;     ///< canonical slab order, sender view
    std::vector<std::size_t> recv_idx;     ///< canonical slab order, receiver view
  };

  /// Serialized run-away record: which slab entry hosts it plus the node.
  struct PackedRunaway {
    std::int32_t slab_pos;
    std::int32_t pad = 0;
    RunawayAtom atom;
  };

  /// Build one aggregated forward-exchange payload for (axis, side):
  /// sections are [ghost records][chains][emigrants], all position-shifted.
  std::vector<std::byte> pack_side(int axis, int side,
                                   std::vector<RunawayAtom> migrants) const;
  /// Unpack a forward payload into the (axis, side) halo slab; returns the
  /// emigrants riding along (adopted later, in fixed side order).
  std::vector<RunawayAtom> unpack_side(int axis, int side,
                                       const comm::Message& m);

  /// Post one rho phase (both sides) on `nx` / complete it.
  void post_rho_axis(int axis, comm::NeighborhoodExchange& nx);
  void complete_rho_axis(int axis, comm::NeighborhoodExchange& nx);

  /// Shared reverse-accumulate driver: ship halo values of one field back to
  /// their owners and add, nonblocking per axis, fixed side-apply order.
  template <typename T, typename Get, typename Add>
  void reverse_accumulate_field(comm::Comm& comm, int base_tag, Get get,
                                Add add);

  /// Split emigrants into (low, high, keep-for-now) along `axis`.
  void route_emigrants(int axis, std::vector<RunawayAtom>& pending,
                       std::vector<RunawayAtom>& low,
                       std::vector<RunawayAtom>& high) const;
  void adopt(std::vector<RunawayAtom>& settled);

  /// False for a chain node adopt() added after the forward phases had sent
  /// its host: the peers hold no image of it until the next exchange(), so
  /// the rho refresh must not send a value for it.
  bool has_ghost_images(std::int32_t ri) const;

  LatticeNeighborList* lnl_;
  int rank_;
  Side sides_[3][2];  ///< [axis][0 = low, 1 = high]
  std::vector<std::int32_t> adopted_;  ///< nodes adopt() added in exchange()
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace mmd::lat
