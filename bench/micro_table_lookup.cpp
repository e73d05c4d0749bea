// Microbenchmarks (BenchHarness) for the interpolation-table machinery of
// paper §2.1.2: compacted-resident vs compacted-window-DMA vs traditional
// row-DMA lookups, and table construction. `compact_value_direct` times the
// master core's lookup, which reads the table's node-derivative plane;
// `compact_resident_lookup` times a slave core's lookup in its staged copy,
// which rebuilds both node derivatives from a 6-sample window per call — the
// arithmetic the compaction trades for DMA volume. `build_compact_table_*`
// includes filling the plane, which `expand_to_coefficients` then reads.
// Emits BENCH_micro_table_lookup.json for tools/mmd_perf_diff.

#include "bench_common.h"
#include "harness.h"
#include "potential/eam.h"
#include "potential/table_access.h"
#include "sunway/dma.h"
#include "sunway/local_store.h"
#include "util/rng.h"

using namespace mmd;

namespace {

const pot::EamTableSet& tables() {
  static const pot::EamTableSet t =
      pot::EamTableSet::build(pot::EamModel::iron(), 5000);
  return t;
}

}  // namespace

int main() {
  bench::title("micro_table_lookup",
               "EAM interpolation-table lookup and construction costs");
  bench::BenchHarness h("micro_table_lookup");

  {
    const auto& phi = tables().phi(0, 0);
    util::Rng rng(1);
    double x = 0;
    h.time_per_op("compact_value_direct", [&] {
      const double r = 1.5 + 3.4 * rng.uniform();
      double v, d;
      phi.eval(r, &v, &d);
      x += v + d;
    });
    bench::keep(x);
  }

  {
    const auto& phi = tables().phi_trad;
    util::Rng rng(1);
    double x = 0;
    h.time_per_op("traditional_value_direct", [&] {
      const double r = 1.5 + 3.4 * rng.uniform();
      x += phi.value(r) + phi.derivative(r);
    });
    bench::keep(x);
  }

  {
    sw::LocalStore store;
    sw::DmaEngine dma;
    pot::CompactTableAccess access(tables().phi(0, 0), store, dma, true);
    util::Rng rng(2);
    double x = 0;
    h.time_per_op("compact_resident_lookup", [&] {
      double v, d;
      access.eval(1.5 + 3.4 * rng.uniform(), &v, &d);
      x += v;
    });
    bench::keep(x);
    h.add_value("compact_resident_dma_ops", "ops",
                static_cast<double>(dma.stats().get_ops));
  }

  {
    sw::LocalStore store(1024);  // too small for residency
    sw::DmaEngine dma;
    pot::CompactTableAccess access(tables().phi(0, 0), store, dma, true);
    util::Rng rng(3);
    double x = 0;
    h.time_per_op("compact_window_dma_lookup", [&] {
      double v, d;
      access.eval(1.5 + 3.4 * rng.uniform(), &v, &d);
      x += v;
    });
    bench::keep(x);
    h.add_value("compact_window_dma_bytes_per_lookup", "bytes",
                static_cast<double>(dma.stats().get_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, dma.stats().get_ops)));
  }

  {
    sw::DmaEngine dma;
    pot::CoefficientTableAccess access(tables().phi_trad, dma);
    util::Rng rng(4);
    double x = 0;
    h.time_per_op("traditional_row_dma_lookup", [&] {
      double v, d;
      access.eval(1.5 + 3.4 * rng.uniform(), &v, &d);
      x += v;
    });
    bench::keep(x);
    h.add_value("traditional_row_dma_bytes_per_lookup", "bytes",
                static_cast<double>(dma.stats().get_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, dma.stats().get_ops)));
  }

  {
    const pot::EamModel fe = pot::EamModel::iron();
    for (const int segments : {1000, 5000}) {
      h.time_call_ms(
          "build_compact_table_" + std::to_string(segments), [&] {
            auto t = pot::CompactTable::build(
                [&](double r) { return fe.phi(0, 0, r); }, 1.0, 5.0, segments);
            bench::keep(t);
          });
    }
  }

  {
    const auto& compact = tables().phi(0, 0);
    h.time_call_ms("expand_to_coefficients", [&] {
      auto trad = compact.to_coefficients();
      bench::keep(trad);
    });
  }

  return h.write();
}
