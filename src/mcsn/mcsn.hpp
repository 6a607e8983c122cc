#pragma once
// Umbrella header for the mcsn library: metastability-containing sorting
// networks (reproduction of Bund, Lenzen, Medina, DATE 2018).
//
// Layers:
//   core     — ternary logic, Gray codes, valid strings, closures, the
//              comparison FSM and behavioral specifications
//   api      — the public request/response surface: Status/StatusOr,
//              SortRequest/SortResponse with flat zero-copy payloads
//   netlist  — gate-level circuits, ternary/packed evaluation, STA, cell
//              libraries, event-driven simulation, DOT/VCD export
//   ckt      — the paper's 2-sort(B) construction, PPC topologies,
//              baselines (DATE'17-style, naive, serial, Bin-comp)
//   nets     — comparator networks, catalog, SA synthesis, elaboration
//   serve    — streaming sort service: micro-batching over the compiled
//              engine, sorter pooling, futures/callback API, the binary
//              wire codec, metrics
//   refdata  — published evaluation numbers (Tables 7/8)

#include "mcsn/api/sort_api.hpp"
#include "mcsn/api/status.hpp"
#include "mcsn/core/closure.hpp"
#include "mcsn/core/fsm.hpp"
#include "mcsn/core/gray.hpp"
#include "mcsn/core/metastability.hpp"
#include "mcsn/core/packed.hpp"
#include "mcsn/core/spec.hpp"
#include "mcsn/core/trit.hpp"
#include "mcsn/core/valid.hpp"
#include "mcsn/core/word.hpp"
#include "mcsn/ckt/bincomp.hpp"
#include "mcsn/ckt/ops.hpp"
#include "mcsn/ckt/ppc.hpp"
#include "mcsn/ckt/sort2.hpp"
#include "mcsn/ckt/sort2_baselines.hpp"
#include "mcsn/netlist/cell.hpp"
#include "mcsn/netlist/bdd.hpp"
#include "mcsn/netlist/check.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/dot.hpp"
#include "mcsn/netlist/equiv.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/eventsim.hpp"
#include "mcsn/netlist/library.hpp"
#include "mcsn/netlist/netlist.hpp"
#include "mcsn/netlist/opt.hpp"
#include "mcsn/netlist/stats.hpp"
#include "mcsn/netlist/timing.hpp"
#include "mcsn/netlist/vcd.hpp"
#include "mcsn/netlist/verilog.hpp"
#include "mcsn/netlist/verilog_in.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/nets/network.hpp"
#include "mcsn/nets/search.hpp"
#include "mcsn/refdata/paper_tables.hpp"
#include "mcsn/serve/batcher.hpp"
#include "mcsn/serve/metrics.hpp"
#include "mcsn/serve/queue.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/serve/sorter_pool.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/util/cli.hpp"
#include "mcsn/util/histogram.hpp"
#include "mcsn/util/rng.hpp"
#include "mcsn/util/table.hpp"
#include "mcsn/util/thread_pool.hpp"
