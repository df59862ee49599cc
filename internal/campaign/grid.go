package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

// Dim is one grid axis value for network size.
type Dim struct {
	Width  int `json:"width"`
	Height int `json:"height"`
}

// Spec declares a scenario grid: the cross product of every axis. Axes left
// empty contribute the protocol default. The expansion order is fixed
// (topology, dims, benchmark, attack, mitigation, detector, seed — seeds
// innermost so resumable sweeps finish whole configurations first), which
// is what makes a spec's JSONL output well-defined.
type Spec struct {
	Topologies  []string     `json:"topologies,omitempty"`
	Dims        []Dim        `json:"dims,omitempty"`
	Benchmarks  []string     `json:"benchmarks,omitempty"`
	Attacks     []AttackSpec `json:"attacks,omitempty"`
	Mitigations []string     `json:"mitigations,omitempty"`
	// Detectors selects the secure-ack monitor per point (Scenario.Detector:
	// "deficit", the full monitor and the default, or "stock").
	Detectors []string `json:"detectors,omitempty"`
	// Seeds lists explicit seeds; SeedCount generates SeedBase..SeedBase+n-1
	// when Seeds is empty (SeedBase 0 means base 1).
	Seeds     []uint64 `json:"seeds,omitempty"`
	SeedCount int      `json:"seed_count,omitempty"`
	SeedBase  uint64   `json:"seed_base,omitempty"`

	// Scalar knobs applied to every point.
	Warmup       int     `json:"warmup,omitempty"`
	Measure      int     `json:"measure,omitempty"`
	Locate       bool    `json:"locate,omitempty"`
	SecureAck    bool    `json:"secure_ack,omitempty"`
	Recover      bool    `json:"recover,omitempty"`
	TransientBER float64 `json:"transient_ber,omitempty"`
}

// ParseSpec decodes a spec from JSON, rejecting unknown fields so a typo'd
// axis name fails loudly instead of silently running the default grid.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("parse spec: %w", err)
	}
	return s, nil
}

// maxPoints is the largest grid Validate and Run accept. Expand holds every
// point in memory, and a grid past it would take weeks to simulate.
const maxPoints = 1_000_000

// seedCount is the length of the seed axis.
func (s Spec) seedCount() int {
	if len(s.Seeds) > 0 {
		return len(s.Seeds)
	}
	return max(s.SeedCount, 1)
}

// seeds resolves the seed axis.
func (s Spec) seeds() []uint64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	base := s.SeedBase
	if base == 0 {
		base = 1
	}
	out := make([]uint64, s.seedCount())
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// axes returns every axis with its default filled in.
func (s Spec) axes() (topos []string, dims []Dim, benches []string, attacks []AttackSpec, mits, dets []string, seeds []uint64) {
	topos = s.Topologies
	if len(topos) == 0 {
		topos = []string{""}
	}
	dims = s.Dims
	if len(dims) == 0 {
		dims = []Dim{{}}
	}
	benches = s.Benchmarks
	if len(benches) == 0 {
		benches = []string{""}
	}
	attacks = s.Attacks
	if len(attacks) == 0 {
		attacks = []AttackSpec{{Kind: "none"}}
	}
	mits = s.Mitigations
	if len(mits) == 0 {
		mits = []string{"none"}
	}
	dets = s.Detectors
	if len(dets) == 0 {
		dets = []string{""}
	}
	return topos, dims, benches, attacks, mits, dets, s.seeds()
}

// Size reports the number of points the spec expands to, without expanding
// it. A count past math.MaxInt reads as math.MaxInt.
func (s Spec) Size() int {
	n := s.seedCount()
	for _, axis := range [...]int{len(s.Topologies), len(s.Dims), len(s.Benchmarks), len(s.Attacks), len(s.Mitigations), len(s.Detectors)} {
		k := max(axis, 1)
		if n > math.MaxInt/k {
			return math.MaxInt
		}
		n *= k
	}
	return n
}

// checkSize rejects a grid of more than maxPoints points, before anything
// expands it.
func (s Spec) checkSize() error {
	switch n := s.Size(); {
	case n == math.MaxInt:
		return fmt.Errorf("the grid's point count overflows an int; the limit is %d points", maxPoints)
	case n > maxPoints:
		return fmt.Errorf("the grid has %d points; the limit is %d", n, maxPoints)
	}
	return nil
}

// Expand materialises the grid in its canonical order.
func (s Spec) Expand() []Scenario {
	topos, dims, benches, attacks, mits, dets, seeds := s.axes()
	out := make([]Scenario, 0, s.Size())
	for _, topo := range topos {
		for _, dim := range dims {
			for _, bench := range benches {
				for _, attack := range attacks {
					for _, mit := range mits {
						for _, det := range dets {
							for _, seed := range seeds {
								out = append(out, Scenario{
									Topology:     topo,
									Width:        dim.Width,
									Height:       dim.Height,
									Benchmark:    bench,
									Seed:         seed,
									Warmup:       s.Warmup,
									Measure:      s.Measure,
									Attack:       attack,
									Mitigation:   mit,
									Detector:     det,
									Locate:       s.Locate,
									SecureAck:    s.SecureAck,
									Recover:      s.Recover,
									TransientBER: s.TransientBER,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Validate checks the grid's size and lowers and validates every point
// once, so a bad axis value fails before any simulation runs rather than
// mid-sweep.
func (s Spec) Validate() error {
	if err := s.checkSize(); err != nil {
		return err
	}
	for i, sc := range s.Expand() {
		cfg, err := sc.Config()
		if err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

// Hash fingerprints the spec's semantic content (via its canonical JSON
// encoding, which has a fixed field order). Checkpoints carry it so a
// resume against a different spec is rejected instead of producing a
// spliced JSONL file.
func (s Spec) Hash() uint64 {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
