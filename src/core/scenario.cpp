#include "core/scenario.h"

#include <stdexcept>

namespace mmd::core {

kmc::GhostStrategy parse_ghost_strategy(const std::string& s) {
  if (s == "traditional") return kmc::GhostStrategy::Traditional;
  if (s == "on-demand") return kmc::GhostStrategy::OnDemandOneSided;
  if (s == "on-demand-2sided") return kmc::GhostStrategy::OnDemandTwoSided;
  throw std::invalid_argument("unknown kmc.strategy '" + s + "'");
}

SimulationConfig scenario_from_kv(const util::KeyValueConfig& kv) {
  SimulationConfig cfg;
  const auto box = static_cast<int>(kv.get_int("box", 10));
  cfg.md.nx = cfg.md.ny = cfg.md.nz = box;
  cfg.nranks = static_cast<int>(kv.get_int("ranks", 1));
  cfg.md.temperature = kv.get_double("temperature", 600.0);
  cfg.md.seed = static_cast<std::uint64_t>(kv.get_int("seed", 42));
  cfg.md_time_ps = kv.get_double("md.time_ps", 0.08);
  cfg.md.table_segments =
      static_cast<int>(kv.get_int("md.table_segments", 2000));
  cfg.pka_count = static_cast<int>(kv.get_int("pka.count", 1));
  cfg.pka_energy_ev = kv.get_double("pka.energy_ev", 60.0);
  cfg.kmc_cycles = static_cast<int>(kv.get_int("kmc.cycles", 50));
  cfg.kmc_dt_scale = kv.get_double("kmc.dt_scale", 1.0);
  cfg.kmc_table_segments =
      static_cast<int>(kv.get_int("kmc.table_segments", 2000));
  cfg.kmc_strategy =
      parse_ghost_strategy(kv.get_string("kmc.strategy", "on-demand"));
  cfg.kmc_incremental = kv.get_bool("kmc.incremental", true);
  cfg.solute_fraction = kv.get_double("solute", 0.0);
  const std::string accel = kv.get_string("accel", "reference");
  if (accel == "slave") {
    cfg.use_slave_force = true;
  } else if (accel != "reference") {
    throw std::invalid_argument("unknown accel '" + accel +
                                "' (expected reference | slave)");
  }
  if (cfg.use_slave_force && cfg.solute_fraction > 0.0) {
    throw std::invalid_argument(
        "accel=slave is single-species (pure Fe); alloy runs (solute > 0) "
        "must use accel=reference");
  }
  const std::string simd = kv.get_string("md.simd", "auto");
  if (simd == "off") {
    cfg.use_simd_force = false;
  } else if (simd != "auto") {
    throw std::invalid_argument("unknown md.simd '" + simd +
                                "' (expected auto | off)");
  }
  cfg.checkpoint_dir = kv.get_string("checkpoint.dir", "");
  cfg.checkpoint_every =
      static_cast<int>(kv.get_int("checkpoint.every", 0));
  cfg.comm_trace = kv.get_string("comm.trace", "");
  const std::string sample_mode = kv.get_string("sample.mode", "off");
  if (sample_mode == "scd") {
    cfg.sampling.mode = SamplingPolicy::Mode::Scd;
  } else if (sample_mode != "off") {
    throw std::invalid_argument("unknown sample.mode '" + sample_mode +
                                "' (expected off | scd)");
  }
  cfg.sampling.window = static_cast<int>(kv.get_int("sample.window", 5));
  cfg.sampling.stride = static_cast<int>(kv.get_int("sample.stride", 45));
  cfg.sampling.replicates =
      static_cast<int>(kv.get_int("sample.replicates", 8));
  cfg.sampling.validate();
  return cfg;
}

std::string scenario_defaults_text() {
  return
      "box           = 10      # unit cells per axis\n"
      "ranks         = 1       # in-process message-passing ranks\n"
      "temperature   = 600     # K\n"
      "seed          = 42\n"
      "md.time_ps    = 0.08    # cascade MD window\n"
      "md.table_segments = 2000\n"
      "pka.count     = 1\n"
      "pka.energy_ev = 60\n"
      "kmc.cycles    = 50\n"
      "kmc.strategy  = on-demand  # traditional | on-demand | on-demand-2sided\n"
      "kmc.dt_scale  = 1.0\n"
      "kmc.table_segments = 2000\n"
      "kmc.incremental = on    # incremental event tables | off = full-rescan oracle\n"
      "solute        = 0.0      # Fe-Cu alloy: Cu fraction\n"
      "accel         = reference  # reference | slave (slave-core force kernel)\n"
      "md.simd       = auto     # auto | off (AVX2 kernels in the slave force path)\n"
      "checkpoint.dir   =       # optional: directory for per-rank checkpoints\n"
      "checkpoint.every = 0     # KMC cycles between epochs (0 = off)\n"
      "comm.trace    =          # optional: comm flight-recorder trace file\n"
      "sample.mode   = off      # off | scd (sampled long-time mode, docs/SAMPLING.md)\n"
      "sample.window = 5        # detailed KMC cycles per measured window\n"
      "sample.stride = 45       # coarse cycles covered by each SCD warming stride\n"
      "sample.replicates = 8    # RNG-paired SCD replicates (CI from their variance)\n";
}

}  // namespace mmd::core
