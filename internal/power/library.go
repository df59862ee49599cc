// Package power is the synthesis substitute for the paper's Synopsys Design
// Compiler + TSMC 40 nm flow. It models circuits structurally: every block is
// a netlist of standard cells drawn from a 40 nm-like library, and area,
// leakage, dynamic power and critical-path timing are computed from cell
// counts, per-cell constants and per-block switching-activity factors.
//
// Absolute um^2 and uW cannot match a proprietary foundry kit, but every
// claim the paper makes about hardware cost is *relative* (TASP < 1% of a
// router, mitigation +2% area / +6% power, the ordering of the TASP target
// variants), and those relations are preserved by any self-consistent
// library. The constants below were calibrated once so that the TASP
// variants land near Table I and the router near a typical 40 nm NoC router;
// the calibration is asserted by tests and reported in EXPERIMENTS.md.
package power

import "slices"

// Cell identifies a standard-cell type.
type Cell string

// Standard cells used by the circuit builders.
const (
	INV     Cell = "INV"     // inverter
	NAND2   Cell = "NAND2"   // 2-input NAND
	NOR2    Cell = "NOR2"    // 2-input NOR
	AND2    Cell = "AND2"    // 2-input AND
	OR2     Cell = "OR2"     // 2-input OR
	XOR2    Cell = "XOR2"    // 2-input XOR
	XNOR2   Cell = "XNOR2"   // 2-input XNOR
	MUX2    Cell = "MUX2"    // 2:1 multiplexer
	DFF     Cell = "DFF"     // D flip-flop with enable
	LATCH   Cell = "LATCH"   // transparent latch
	FA      Cell = "FA"      // full adder
	SRAMBIT Cell = "SRAMBIT" // one bit of register-file storage
	CLKBUF  Cell = "CLKBUF"  // clock buffer
	TBUF    Cell = "TBUF"    // tri-state buffer
	CMPBIT  Cell = "CMPBIT"  // one comparator bit-slice (XNOR + wired-AND), CAM-style
	WIRE    Cell = "WIRE"    // 0.1 mm of local datapath wire inside a router
	GWIRE   Cell = "GWIRE"   // 0.1 mm of global inter-router link wire incl. repeaters/shielding
)

// CellParams holds the physical constants of one standard cell.
type CellParams struct {
	Area     float64 // um^2
	Leakage  float64 // nW at 1.0 V, 25 C
	ToggleFJ float64 // fJ consumed per output toggle at 1.0 V
	DelayPS  float64 // propagation delay in ps (typical load)
}

// Library maps cells to their physical constants.
type Library map[Cell]CellParams

// Default40nm is the calibrated 40 nm-like library (1.0 V, 2 GHz target).
// Area values approximate TSMC 40 nm standard-cell footprints (NAND2 as the
// ~0.25 um^2 unit gate at high utilisation); leakage and switching energies
// are set so the TASP Table I points and the router Figure 8 breakdown come
// out near the paper's numbers.
var Default40nm = Library{
	INV:     {Area: 0.18, Leakage: 0.10, ToggleFJ: 0.25, DelayPS: 11},
	NAND2:   {Area: 0.25, Leakage: 0.14, ToggleFJ: 0.35, DelayPS: 14},
	NOR2:    {Area: 0.25, Leakage: 0.14, ToggleFJ: 0.35, DelayPS: 16},
	AND2:    {Area: 0.28, Leakage: 0.16, ToggleFJ: 0.40, DelayPS: 18},
	OR2:     {Area: 0.28, Leakage: 0.16, ToggleFJ: 0.40, DelayPS: 18},
	XOR2:    {Area: 0.42, Leakage: 0.25, ToggleFJ: 0.70, DelayPS: 24},
	XNOR2:   {Area: 0.42, Leakage: 0.25, ToggleFJ: 0.70, DelayPS: 24},
	MUX2:    {Area: 0.46, Leakage: 0.20, ToggleFJ: 0.55, DelayPS: 20},
	DFF:     {Area: 2.20, Leakage: 1.00, ToggleFJ: 1.60, DelayPS: 90},
	LATCH:   {Area: 1.10, Leakage: 0.60, ToggleFJ: 0.80, DelayPS: 45},
	FA:      {Area: 1.30, Leakage: 0.80, ToggleFJ: 1.50, DelayPS: 40},
	SRAMBIT: {Area: 0.60, Leakage: 0.55, ToggleFJ: 2.00, DelayPS: 0},
	CLKBUF:  {Area: 0.32, Leakage: 0.18, ToggleFJ: 0.20, DelayPS: 12},
	TBUF:    {Area: 0.40, Leakage: 0.20, ToggleFJ: 0.50, DelayPS: 17},
	CMPBIT:  {Area: 0.33, Leakage: 0.10, ToggleFJ: 0.45, DelayPS: 20},
	WIRE:    {Area: 4.00, Leakage: 0.00, ToggleFJ: 10.0, DelayPS: 10},
	GWIRE:   {Area: 18.0, Leakage: 0.00, ToggleFJ: 20.0, DelayPS: 15},
}

// cellOrder is the library's cells in name order, the one order in which a
// block sums its cells' area, leakage and switching power.
var cellOrder = sortedCells(Default40nm)

func sortedCells(lib Library) []Cell {
	cells := make([]Cell, 0, len(lib))
	for c := range lib { //nocvet:orderfree keys are sorted before use
		cells = append(cells, c)
	}
	slices.Sort(cells)
	return cells
}

// DefaultFreqGHz is the paper's operating frequency.
const DefaultFreqGHz = 2.0

// DefaultVoltage is the paper's supply voltage (volts). Dynamic energies in
// the library are quoted at this voltage; Scale* helpers adjust for others.
const DefaultVoltage = 1.0
