#pragma once

#include <string>

#include "core/simulation.h"
#include "util/key_value.h"

namespace mmd::core {

/// Parse the `kmc.strategy` scenario value; throws std::invalid_argument on
/// anything but "traditional" | "on-demand" | "on-demand-2sided".
kmc::GhostStrategy parse_ghost_strategy(const std::string& s);

/// Scenario-as-data: the declarative key=value schema shared by mmd_run
/// config files and campaign job specs, mapped onto a SimulationConfig.
///
///   box, ranks, temperature, seed,
///   md.time_ps, md.table_segments,
///   pka.count, pka.energy_ev,
///   kmc.cycles, kmc.strategy, kmc.dt_scale, kmc.table_segments,
///   kmc.incremental,
///   solute, accel (reference | slave), md.simd (auto | off),
///   checkpoint.dir, checkpoint.every,
///   comm.trace (comm flight-recorder output file; campaigns write it
///   under the job's directory),
///   sample.mode (off | scd), sample.window, sample.stride,
///   sample.replicates (sampled long-time mode, docs/SAMPLING.md)
///
/// Every key consumed is marked known on `kv`, so callers can follow up with
/// kv.reject_unknown_keys() after reading their own driver-level keys (xyz,
/// job.priority, ...). Validates cross-key constraints that the plain
/// getters cannot: accel=slave with solute>0 is rejected because the
/// slave-core force kernel is single-species.
SimulationConfig scenario_from_kv(const util::KeyValueConfig& kv);

/// The schema above as `--print-defaults` text (one source of truth for the
/// mmd_run and mmd_campaign help output).
std::string scenario_defaults_text();

}  // namespace mmd::core
