#pragma once
// Standard-cell library model: per-cell area, pin capacitance, and a linear
// delay model
//
//   gate delay = intrinsic + slope * (sum of driven pin caps + wire/port cap)
//
// The default library ("paper-calibrated") reproduces the paper's NanGate
// 45 nm post-layout areas exactly for the AND2/OR2/INV subset: the paper's
// own four (gate count, area) points for 2-sort(B) determine
// area(AND2)+area(OR2) = 2.975 um^2 and area(INV) = 0.8703 um^2. Delay
// parameters are calibrated once against the four pre-layout delay points
// of Table 7, row "This paper" (the fit: tools/calibrate_delay.cpp).

#include <array>
#include <string>

#include "mcsn/netlist/cell.hpp"

namespace mcsn {

struct CellParams {
  double area = 0.0;       // um^2
  double input_cap = 0.0;  // normalized cap units per input pin
  double intrinsic = 0.0;  // ps
  double slope = 0.0;      // ps per cap unit of load
};

class CellLibrary {
 public:
  CellLibrary() = default;
  CellLibrary(std::string name, std::array<CellParams, kCellKindCount> cells,
              double port_cap)
      : name_(std::move(name)), cells_(cells), port_cap_(port_cap) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] const CellParams& params(CellKind k) const noexcept {
    return cells_[static_cast<int>(k)];
  }

  /// Extra load seen by nodes that drive a primary output port.
  [[nodiscard]] double port_cap() const noexcept { return port_cap_; }

  /// Library calibrated against the paper's reported area/delay (default).
  [[nodiscard]] static const CellLibrary& paper_calibrated();

  /// area = 1, delay = 1 per gate, no load dependence: pure gate count /
  /// logic depth accounting.
  [[nodiscard]] static const CellLibrary& unit();

 private:
  std::string name_ = "unit";
  std::array<CellParams, kCellKindCount> cells_{};
  double port_cap_ = 0.0;
};

}  // namespace mcsn
