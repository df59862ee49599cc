package power

import (
	"fmt"
	"sort"
	"strings"
)

// Block is a hierarchical netlist node: a bag of standard cells plus named
// sub-blocks. Area and leakage are sums over the hierarchy; dynamic power
// additionally weights each block's cells by its switching-activity factor.
type Block struct {
	Name string
	// Activity is the average fraction of cell outputs that toggle per
	// cycle within this block (0..1). Sub-blocks carry their own factors.
	Activity float64
	// DepthPS is this block's local critical path in picoseconds (combinational
	// logic between registers), excluding sub-blocks.
	DepthPS float64

	cells map[Cell]int
	Subs  []*Block
	lib   Library
}

// NewBlock creates an empty block with the given activity factor using the
// default library.
func NewBlock(name string, activity float64) *Block {
	return &Block{Name: name, Activity: activity, cells: map[Cell]int{}, lib: Default40nm}
}

// Add places n instances of cell c in the block (n may be 0; negative panics).
func (b *Block) Add(c Cell, n int) *Block {
	if n < 0 {
		panic(fmt.Sprintf("power: negative cell count %d for %s", n, c))
	}
	if _, ok := b.lib[c]; !ok {
		panic(fmt.Sprintf("power: unknown cell %q", c))
	}
	b.cells[c] += n
	return b
}

// AddSub attaches a sub-block.
func (b *Block) AddSub(s *Block) *Block {
	b.Subs = append(b.Subs, s)
	return b
}

// Sub returns the direct sub-block with the given name, or nil.
func (b *Block) Sub(name string) *Block {
	for _, s := range b.Subs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// CellCount returns the number of instances of c in this block only.
func (b *Block) CellCount(c Cell) int { return b.cells[c] }

// TotalCells returns the number of cell instances in the whole hierarchy.
func (b *Block) TotalCells() int {
	n := 0
	for _, c := range b.cells { //nocvet:orderfree commutative sum
		n += c
	}
	for _, s := range b.Subs {
		n += s.TotalCells()
	}
	return n
}

// Area returns the total silicon area of the hierarchy in um^2. Like
// Leakage and Dynamic it sums the cells in cellOrder: float addition is not
// associative, so a sum in map order would vary from run to run.
func (b *Block) Area() float64 {
	a := 0.0
	for _, c := range cellOrder {
		a += b.lib[c].Area * float64(b.cells[c])
	}
	for _, s := range b.Subs {
		a += s.Area()
	}
	return a
}

// Leakage returns the total static power of the hierarchy in nW.
func (b *Block) Leakage() float64 {
	l := 0.0
	for _, c := range cellOrder {
		l += b.lib[c].Leakage * float64(b.cells[c])
	}
	for _, s := range b.Subs {
		l += s.Leakage()
	}
	return l
}

// Dynamic returns the switching power of the hierarchy in uW at the given
// clock frequency: sum over cells of toggleEnergy * activity * f. With
// energies in fJ and f in GHz the product is in uW directly.
func (b *Block) Dynamic(freqGHz float64) float64 {
	d := 0.0
	for _, c := range cellOrder {
		d += b.lib[c].ToggleFJ * float64(b.cells[c]) * b.Activity * freqGHz
	}
	for _, s := range b.Subs {
		d += s.Dynamic(freqGHz)
	}
	return d
}

// CriticalPathPS returns the worst local combinational depth found anywhere
// in the hierarchy (sub-blocks are register-bounded, so depths do not add
// across the hierarchy).
func (b *Block) CriticalPathPS() float64 {
	worst := b.DepthPS
	for _, s := range b.Subs {
		if d := s.CriticalPathPS(); d > worst {
			worst = d
		}
	}
	return worst
}

// Report renders a one-level summary of the block for logs and tools.
func (b *Block) Report(freqGHz float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: area=%.2f um^2 leakage=%.3f nW dynamic=%.3f uW depth=%.0f ps cells=%d\n",
		b.Name, b.Area(), b.Leakage(), b.Dynamic(freqGHz), b.CriticalPathPS(), b.TotalCells())
	names := make([]string, 0, len(b.Subs))
	seen := map[string]*Block{}
	for _, s := range b.Subs {
		if _, dup := seen[s.Name]; !dup {
			names = append(names, s.Name)
		}
		seen[s.Name] = s
	}
	sort.Strings(names)
	for _, n := range names {
		s := seen[n]
		fmt.Fprintf(&sb, "  %-22s area=%10.2f leak=%10.3f dyn=%10.3f\n",
			s.Name, s.Area(), s.Leakage(), s.Dynamic(freqGHz))
	}
	return sb.String()
}
