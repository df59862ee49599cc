// Fixture for the hotcopy analyzer, rooted at Net.Step: no function
// statically reachable from a root may take a struct or array larger than
// 64 bytes by value (receiver or parameter) unless annotated
// //nocvet:allowcopy with a reason.
package hotcopy

// Config is 96 bytes: copying it is more than a cache line.
type Config struct {
	VCs, Depth, Ports int
	Pad               [9]int
}

// small is 16 bytes and may travel by value.
type small struct{ a, b int }

// Net mimics the simulator: Step is the hot path, Setup is not.
type Net struct {
	cfg  Config
	tab  [16]int
	part small
}

func (n *Net) Step() {
	n.phase(n.cfg)
	n.phasePtr(&n.cfg)
	_ = n.cfg.Ports3()
	n.scan(n.tab)
	n.pair(n.part)
	n.dump(n.cfg)
	n.trace(n.cfg)
	_ = n.locals()
}

// locals copies large values into locals: flagged when the right-hand side
// is an existing variable, field, element or pointee, not when it builds a
// new value.
func (n *Net) locals() int {
	cfg := n.cfg // want `local Config copies 96 bytes`
	p := &n.cfg
	var deref = *p // want `local Config copies 96 bytes`
	tab := n.tab   // want `local \[16\]int copies 128 bytes`
	part := n.part
	fresh := Config{VCs: 1}
	snap := n.cfg //nocvet:allowcopy the snapshot must not alias the live config
	return cfg.VCs + p.VCs + deref.Depth + tab[0] + part.a + fresh.VCs + snap.Ports
}

func (n *Net) phase(cfg Config) { // want `by-value parameter Config copies 96 bytes per call on the hot path \(Net\.Step -> Net\.phase\)`
	_ = cfg.VCs
}

// phasePtr is the fix: the config travels as a pointer.
func (n *Net) phasePtr(cfg *Config) { _ = cfg.VCs }

func (c Config) Ports3() int { return c.Ports * 3 } // want `by-value receiver Config copies 96 bytes`

func (n *Net) scan(tab [16]int) int { return tab[0] } // want `by-value parameter \[16\]int copies 128 bytes`

// pair takes a small struct by value: permitted.
func (n *Net) pair(p small) int { return p.a + p.b }

// dump is reachable from Step but wholly sanctioned by a function-level
// annotation: diagnostics-only code invoked on invariant failure.
//
//nocvet:allowcopy cold diagnostics path, runs only on failure
func (n *Net) dump(cfg Config) int { return cfg.Depth }

func (n *Net) trace(
	cfg Config, //nocvet:allowcopy the tracer keeps a snapshot of the config
) {
	_ = cfg
}

// Setup is not reachable from any root: by-value configs are fine here.
func Setup(cfg Config) *Net { return &Net{cfg: cfg} }
