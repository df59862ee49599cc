package detect

import (
	"testing"

	"tasp/internal/bist"
	"tasp/internal/fault"
	"tasp/internal/lob"
	"tasp/internal/xrand"
)

func key(p uint64, i uint8) FlitKey { return FlitKey{PacketID: p, Index: i} }

var plain = lob.Choice{Method: lob.None}

func TestHealthyUntilFault(t *testing.T) {
	d := New(0)
	if d.Classification() != Healthy {
		t.Fatalf("fresh detector is %v", d.Classification())
	}
}

func TestFirstFaultJustRetransmits(t *testing.T) {
	d := New(0)
	if d.OnFault(key(1, 0), plain) {
		t.Fatal("first fault asked for BIST")
	}
	if d.Classification() != Transient {
		t.Fatalf("classification %v, want transient", d.Classification())
	}
	if len(d.history) != 1 {
		t.Fatalf("history len %d", len(d.history))
	}
}

func TestRepeatedFaultEscalates(t *testing.T) {
	d := New(0)
	d.OnFault(key(1, 0), plain)
	if !d.OnFault(key(1, 0), plain) {
		t.Fatal("repeat fault did not ask for BIST")
	}
	if d.Classification() != Suspect {
		t.Fatalf("classification %v, want suspect", d.Classification())
	}
	// Once BIST has run, further faults must not re-request it.
	d.SetBISTResult(bist.Scan(0, fault.None))
	if d.OnFault(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.WholeFlit}) {
		t.Fatal("BIST re-requested after completion")
	}
	if d.history[0].faults != 3 || d.Classification() != Suspect {
		t.Fatalf("third fault: record %+v, classification %v; want 3 faults, suspect", d.history[0], d.Classification())
	}
}

func TestTrojanClassification(t *testing.T) {
	// The paper's discovery sequence: repeated faults on one flit, BIST
	// clean, then a clean arrival under obfuscation => hardware trojan.
	d := New(0)
	d.OnFault(key(7, 0), plain)
	d.OnFault(key(7, 0), plain)
	d.SetBISTResult(bist.Scan(0, fault.None))
	d.OnClean(key(7, 0), lob.Choice{Method: lob.Scramble, Gran: lob.WholeFlit})
	if d.Classification() != Trojan {
		t.Fatalf("classification %v, want trojan", d.Classification())
	}
	if len(d.history) != 0 {
		t.Fatal("delivered flit left in history")
	}
}

func TestPermanentClassification(t *testing.T) {
	d := New(0)
	d.OnFault(key(3, 0), plain)
	d.OnFault(key(3, 0), plain)
	d.SetBISTResult(bist.Scan(0, fault.NewStuckAt(map[int]uint{4: 1, 9: 0})))
	if d.Classification() != Permanent {
		t.Fatalf("classification %v, want permanent", d.Classification())
	}
	if !d.bistDone || !d.bistReport.Permanent() {
		t.Fatal("BIST report not retained")
	}
}

func TestTransientStaysTransient(t *testing.T) {
	d := New(0)
	// Many distinct flits fault once each — background upsets.
	for i := uint64(0); i < 20; i++ {
		if d.OnFault(key(i, 0), plain) {
			t.Fatalf("isolated fault %d asked for BIST", i)
		}
	}
	if d.Classification() != Transient {
		t.Fatalf("classification %v, want transient", d.Classification())
	}
}

func TestCleanPlainArrivalIsNoop(t *testing.T) {
	d := New(0)
	d.OnClean(key(1, 0), plain)
	if d.Classification() != Healthy || d.granOK != [len(d.granOK)]int{} {
		t.Fatal("plain clean arrival mutated detector state")
	}
}

func TestHistoryEviction(t *testing.T) {
	d := New(4)
	for i := uint64(0); i < 10; i++ {
		d.OnFault(key(i, 0), plain)
	}
	if len(d.history) != 4 {
		t.Fatalf("history len %d, cap 4", len(d.history))
	}
	// The oldest entries were evicted: a repeat of flit 0 now looks new.
	if d.OnFault(key(0, 0), plain) {
		t.Fatal("evicted flit treated as repeat")
	}
	// But a repeat of a recent one asks for BIST.
	if !d.OnFault(key(9, 0), plain) {
		t.Fatal("recent repeat did not ask for BIST")
	}
}

func TestTriggerScopeLocalisation(t *testing.T) {
	d := New(0)
	if d.TriggerScope() != "unknown" {
		t.Fatalf("fresh scope %q", d.TriggerScope())
	}
	// Header-only obfuscation succeeds, payload-only fails: the trigger
	// taps header wires.
	d.OnFault(key(1, 0), plain)
	d.OnFault(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.PayloadOnly})
	d.OnClean(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.HeaderOnly})
	if d.TriggerScope() != "header" {
		t.Fatalf("scope %q, want header", d.TriggerScope())
	}
}

// TestTriggerScopeFirstFaultObfuscated is the regression test for the
// OnFault first-fault path: the first observation of a flit can already be
// obfuscated (attempt 0 replays the flow's logged method; eviction can erase
// a flit's record between retries). That failure is granularity evidence and
// must land in granFail even though the history lookup misses.
func TestTriggerScopeFirstFaultObfuscated(t *testing.T) {
	d := New(0)
	// First observed fault: header-only obfuscation already applied (the
	// flow's logged method) and defeated — the trigger survives a scrambled
	// header, so it taps the payload.
	d.OnFault(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.HeaderOnly})
	// A later attempt under payload-only obfuscation gets through.
	d.OnClean(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.PayloadOnly})
	if got := d.TriggerScope(); got != "payload" {
		t.Fatalf("scope %q, want payload (first-fault obfuscation evidence dropped?)", got)
	}
}

// TestEvictionKeepsMemoryStable asserts the fault-history backing array is
// allocated once and never grows, no matter how many evictions a sustained
// attack forces through the table.
func TestEvictionKeepsMemoryStable(t *testing.T) {
	const cap_ = 8
	d := New(cap_)
	for i := uint64(0); i < cap_; i++ {
		d.OnFault(key(i, 0), plain)
	}
	base := cap(d.history)
	for i := uint64(cap_); i < 100*cap_; i++ {
		d.OnFault(key(i, 0), plain)
	}
	if len(d.history) != cap_ {
		t.Fatalf("history len %d, cap %d", len(d.history), cap_)
	}
	if got := cap(d.history); got != base {
		t.Fatalf("backing array grew: cap %d -> %d after sustained eviction", base, got)
	}
	// Steady-state insert and eviction allocate nothing.
	i := uint64(1000)
	if avg := testing.AllocsPerRun(100, func() {
		d.OnFault(key(i, 0), plain)
		i++
	}); avg != 0 {
		t.Fatalf("steady-state OnFault averages %.1f allocs, want 0", avg)
	}
}

// TestCounters pins the detector's counts: a flit's record counts its
// faults, a repeat of one makes the link suspect, and the obfuscated clean
// arrival that retires the record counts as evidence for its granularity.
func TestCounters(t *testing.T) {
	d := New(0)
	d.OnFault(key(1, 0), plain)
	if !d.OnFault(key(1, 0), plain) {
		t.Fatal("repeated fault did not ask for BIST")
	}
	if len(d.history) != 1 || d.history[0] != (record{key(1, 0), 2}) {
		t.Fatalf("history after two faults: %+v, want one record with 2 faults", d.history)
	}
	if d.Classification() != Suspect {
		t.Fatalf("classification %v after a repeated fault, want suspect", d.Classification())
	}
	d.OnClean(key(1, 0), lob.Choice{Method: lob.Invert, Gran: lob.WholeFlit})
	if len(d.history) != 0 {
		t.Fatal("clean arrival did not retire the flit's record")
	}
	if d.granOK != [len(d.granOK)]int{lob.WholeFlit: 1} || d.granFail != [len(d.granFail)]int{} {
		t.Fatalf("granularity evidence ok=%v fail=%v, want one whole-flit success", d.granOK, d.granFail)
	}
}

func TestClassificationStrings(t *testing.T) {
	want := map[Classification]string{
		Healthy: "healthy", Transient: "transient", Permanent: "permanent",
		Trojan: "trojan", Suspect: "suspect",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d = %q want %q", c, c.String(), s)
		}
	}
}

// mapDetector is the detector as it was written before its history became
// a slice of values: a map index over a list of record pointers, a free
// list, map-typed granularity evidence and an Action carrying obfuscation
// advice. Kept as the oracle the detector is checked against.
type mapDetector struct {
	historyCap int
	history    []*record
	index      map[FlitKey]*record

	bistDone   bool
	bistReport bist.Report

	granOK   map[lob.Granularity]int
	granFail map[lob.Granularity]int

	class Classification

	free []*record
}

// mapAction is the oracle's OnFault advice.
type mapAction struct{ RunBIST, Obfuscate bool }

func newMapDetector(historyCap int) *mapDetector {
	if historyCap <= 0 {
		historyCap = DefaultHistoryCap
	}
	return &mapDetector{
		historyCap: historyCap,
		index:      map[FlitKey]*record{},
		granOK:     map[lob.Granularity]int{},
		granFail:   map[lob.Granularity]int{},
	}
}

func (d *mapDetector) OnFault(key FlitKey, obf lob.Choice) mapAction {
	r := d.index[key]
	if r == nil {
		r = d.getRecord(key)
		d.insert(r)
		r.faults = 1
		if obf.Method != lob.None {
			d.granFail[obf.Gran]++
		}
		if d.class == Healthy {
			d.class = Transient
		}
		return mapAction{}
	}
	r.faults++
	if obf.Method != lob.None {
		d.granFail[obf.Gran]++
	}
	if d.class == Healthy || d.class == Transient {
		d.class = Suspect
	}
	return mapAction{RunBIST: !d.bistDone, Obfuscate: true}
}

func (d *mapDetector) OnClean(key FlitKey, obf lob.Choice) {
	if obf.Method == lob.None {
		return
	}
	d.granOK[obf.Gran]++
	if r := d.index[key]; r != nil && r.faults >= 2 && d.bistDone && !d.bistReport.Permanent() {
		d.class = Trojan
	}
	d.remove(key)
}

func (d *mapDetector) SetBISTResult(rep bist.Report) {
	d.bistDone = true
	d.bistReport = rep
	if rep.Permanent() {
		d.class = Permanent
	}
}

func (d *mapDetector) TriggerScope() string {
	switch {
	case d.granOK[lob.HeaderOnly] > 0 && d.granFail[lob.PayloadOnly] > 0:
		return "header"
	case d.granOK[lob.PayloadOnly] > 0 && d.granFail[lob.HeaderOnly] > 0:
		return "payload"
	case d.granOK[lob.WholeFlit] > 0:
		return "flit"
	default:
		return "unknown"
	}
}

func (d *mapDetector) insert(r *record) {
	if d.history == nil {
		d.history = make([]*record, 0, d.historyCap)
	}
	if len(d.history) >= d.historyCap {
		old := d.history[0]
		delete(d.index, old.key)
		n := copy(d.history, d.history[1:])
		d.history[n] = nil
		d.history = d.history[:n]
		d.recycle(old)
	}
	d.history = append(d.history, r)
	d.index[r.key] = r
}

func (d *mapDetector) remove(key FlitKey) {
	r := d.index[key]
	if r == nil {
		return
	}
	delete(d.index, key)
	for i, h := range d.history {
		if h == r {
			d.history = append(d.history[:i], d.history[i+1:]...)
			break
		}
	}
	d.recycle(r)
}

func (d *mapDetector) getRecord(key FlitKey) *record {
	if k := len(d.free); k > 0 {
		r := d.free[k-1]
		d.free = d.free[:k-1]
		r.key = key
		r.faults = 0
		return r
	}
	return &record{key: key}
}

func (d *mapDetector) recycle(r *record) { d.free = append(d.free, r) }

func (d *mapDetector) Reset() {
	for i, r := range d.history {
		delete(d.index, r.key)
		d.history[i] = nil
		d.recycle(r)
	}
	d.history = d.history[:0]
	d.bistDone = false
	d.bistReport = bist.Report{}
	clear(d.granOK)
	clear(d.granFail)
	d.class = Healthy
}

// TestDetectorMatchesMapOracle drives the detector and the map-based
// oracle with the same random streams of faults, clean arrivals, BIST
// results and resets, over keys enough to force evictions, and requires
// after every event the same classification, trigger scope, BIST request
// and history, record by record in age order.
func TestDetectorMatchesMapOracle(t *testing.T) {
	choices := []lob.Choice{plain}
	for i := 0; i < 8; i++ {
		choices = append(choices, lob.Escalate(nil, i))
	}
	reports := []bist.Report{
		bist.Scan(0, fault.None),
		bist.Scan(0, fault.NewStuckAt(map[int]uint{4: 1})),
	}
	var classes [Suspect + 1]int
	scopes := map[string]int{}
	evictions := 0
	for _, hist := range []int{1, 2, 4, 16, 64} {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := xrand.New(seed*1000 + uint64(hist))
			d, o := New(hist), newMapDetector(hist)
			for ev := 0; ev < 4000; ev++ {
				k := key(uint64(rng.Intn(2*hist+2)), uint8(rng.Intn(2)))
				c := choices[rng.Intn(len(choices))]
				var what string
				switch x := rng.Intn(100); {
				case x < 55:
					what = "fault"
					if len(o.history) == hist && o.index[k] == nil {
						evictions++
					}
					got, want := d.OnFault(k, c), o.OnFault(k, c).RunBIST
					if got != want {
						t.Fatalf("hist %d seed %d event %d: OnFault(%v, %v) asked for BIST %v, oracle %v", hist, seed, ev, k, c, got, want)
					}
				case x < 97:
					what = "clean"
					d.OnClean(k, c)
					o.OnClean(k, c)
				case x < 99:
					what = "bist"
					rep := reports[rng.Intn(len(reports))]
					d.SetBISTResult(rep)
					o.SetBISTResult(rep)
				default:
					what = "reset"
					d.Reset()
					o.Reset()
				}
				if d.Classification() != o.class || d.TriggerScope() != o.TriggerScope() {
					t.Fatalf("hist %d seed %d event %d (%s): classification %v scope %q, oracle %v %q",
						hist, seed, ev, what, d.Classification(), d.TriggerScope(), o.class, o.TriggerScope())
				}
				if len(d.history) != len(o.history) {
					t.Fatalf("hist %d seed %d event %d (%s): %d records, oracle %d", hist, seed, ev, what, len(d.history), len(o.history))
				}
				for i, r := range o.history {
					if d.history[i] != *r {
						t.Fatalf("hist %d seed %d event %d (%s): record %d is %+v, oracle %+v", hist, seed, ev, what, i, d.history[i], *r)
					}
				}
				classes[d.Classification()]++
				scopes[d.TriggerScope()]++
			}
		}
	}
	for c, n := range classes {
		if n == 0 {
			t.Errorf("no stream reached %v: the comparison is vacuous there", Classification(c))
		}
	}
	for _, s := range []string{"unknown", "flit", "header", "payload"} {
		if scopes[s] == 0 {
			t.Errorf("no stream reached trigger scope %q: the comparison is vacuous there", s)
		}
	}
	if evictions == 0 {
		t.Error("no stream evicted a record")
	}
}
