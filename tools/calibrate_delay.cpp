// Calibration helper for the default cell library's delay parameters
// (netlist/library.cpp). Two modes:
//
//   calibrate_delay          — report measured vs published Table 7 values
//   calibrate_delay --sweep  — grid-search (intrinsic, slope) parameters for
//                              INV/AND2/OR2 minimizing the maximum relative
//                              error against the four published delays
//                              (119 / 362 / 516 / 805 ps)

#include <array>
#include <cstdio>
#include <iostream>
#include <limits>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/stats.hpp"
#include "mcsn/netlist/timing.hpp"
#include "mcsn/refdata/paper_tables.hpp"
#include "mcsn/util/cli.hpp"

namespace {

using namespace mcsn;

CellLibrary make_lib(double inv_i, double inv_s, double gate_i, double gate_s,
                     double port) {
  std::array<CellParams, kCellKindCount> cells{};
  cells[static_cast<int>(CellKind::inv)] = CellParams{0.8703, 1.0, inv_i,
                                                      inv_s};
  cells[static_cast<int>(CellKind::and2)] =
      CellParams{1.4875, 1.0, gate_i, gate_s};
  cells[static_cast<int>(CellKind::or2)] =
      CellParams{1.4875, 1.0, gate_i, gate_s};
  return CellLibrary("sweep", cells, port);
}

double max_rel_error(const CellLibrary& lib, bool print) {
  double worst = 0.0;
  if (print) {
    std::printf("%4s %8s %10s %10s %10s %10s %10s %10s\n", "B", "gates",
                "gates.ref", "area", "area.ref", "delay", "delay.ref",
                "d.err%");
  }
  for (const int bits : {2, 4, 8, 16}) {
    const Netlist nl = make_sort2(static_cast<std::size_t>(bits));
    const auto ref = refdata::table7_row(refdata::Circuit::here, bits);
    const double delay = analyze_timing(nl, lib).critical_delay;
    const double err = (delay - ref->delay) / ref->delay;
    worst = std::max(worst, std::abs(err));
    if (print) {
      const CircuitStats s = compute_stats(nl);
      std::printf("%4d %8zu %10zu %10.3f %10.3f %10.1f %10.1f %9.1f%%\n",
                  bits, s.gates, ref->gates, s.area, ref->area, delay,
                  ref->delay, 100.0 * err);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"sweep"});
  if (!args.has("sweep")) {
    max_rel_error(CellLibrary::paper_calibrated(), true);
    return 0;
  }

  double best = std::numeric_limits<double>::infinity();
  double bp[5] = {0, 0, 0, 0, 0};
  for (double inv_i = 4; inv_i <= 16; inv_i += 2) {
    for (double inv_s = 2; inv_s <= 12; inv_s += 2) {
      for (double gate_i = 14; gate_i <= 36; gate_i += 2) {
        for (double gate_s = 2; gate_s <= 14; gate_s += 2) {
          for (double port = 0.5; port <= 2.5; port += 0.5) {
            const double err = max_rel_error(
                make_lib(inv_i, inv_s, gate_i, gate_s, port), false);
            if (err < best) {
              best = err;
              bp[0] = inv_i;
              bp[1] = inv_s;
              bp[2] = gate_i;
              bp[3] = gate_s;
              bp[4] = port;
            }
          }
        }
      }
    }
  }
  std::printf("best max|err| = %.2f%% at inv=(%.0f,%.0f) gate=(%.0f,%.0f) "
              "port=%.1f\n",
              100.0 * best, bp[0], bp[1], bp[2], bp[3], bp[4]);
  max_rel_error(make_lib(bp[0], bp[1], bp[2], bp[3], bp[4]), true);
  return 0;
} catch (const CliError& e) {
  std::cerr << "calibrate_delay: " << e.what()
            << "\nusage: tool_calibrate_delay [--sweep]\n";
  return 2;
}
