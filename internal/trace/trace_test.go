package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
	"tasp/internal/traffic"
)

func TestRoundTripInMemory(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{Cycle: 0, Core: 0, DstR: 5, DstC: 1, VC: 2, Body: 4, Seq: 9, Mem: 0x05001234},
		{Cycle: 3, Core: 63, DstR: 15, VC: 3, Seq: 1, Mem: 0x0f000001},
	}
	for _, e := range evs {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 64 || r.Routers != 16 {
		t.Fatalf("header: %d cores %d routers", r.Cores, r.Routers)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("events: %d", len(got))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], evs[i])
		}
	}
}

func TestRoundTripFileWithPatchedCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Add(Event{Cycle: uint32(i), Core: uint16(i), DstR: uint8(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	r, err := NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Declared != 10 {
		t.Fatalf("declared count %d, want 10 (seek patch)", r.Declared)
	}
	got, err := r.ReadAll()
	if err != nil || len(got) != 10 {
		t.Fatalf("read back %d events, err %v", len(got), err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file..."))); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, noc.DefaultConfig())
	w.Add(Event{Cycle: 1})
	w.Close()
	raw := buf.Bytes()[:len(buf.Bytes())-3] // chop the last record
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Declared count is patched only on seekable writers; here it is 0, so
	// the reader streams until the truncation error.
	if _, err := r.ReadAll(); err == nil {
		t.Fatal("truncated record not reported")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, noc.DefaultConfig())
	if err := w.Add(Event{Core: 64}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	w.Close()
	if err := w.Add(Event{}); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestEventPacket(t *testing.T) {
	e := Event{Core: 7, DstR: 3, DstC: 2, VC: 1, Body: 4, Seq: 5, Mem: 0x03000042}
	p := e.Packet()
	if p.NumFlits() != 5 {
		t.Fatalf("flits: %d", p.NumFlits())
	}
	h := p.Hdr
	if h.DstR != 3 || h.DstC != 2 || h.VC != 1 || h.Seq != 5 || h.Mem != 0x03000042 {
		t.Fatalf("header: %+v", h)
	}
	// Deterministic body synthesis.
	q := e.Packet()
	for i := range p.Body {
		if p.Body[i] != q.Body[i] {
			t.Fatal("body synthesis not deterministic")
		}
	}
}

// TestRecordReplayIdentical records the blackscholes model, replays the
// trace twice on fresh networks, and checks both runs produce identical
// counters — the bit-identical replay property trace-driven mode exists
// for.
func TestRecordReplayIdentical(t *testing.T) {
	cfg := noc.DefaultConfig()
	m, err := traffic.Benchmark("blackscholes", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, cfg)
	if err := Record(w, m.Generator(5), 800); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if w.Count() == 0 {
		t.Fatal("nothing recorded")
	}

	run := func() noc.Counters {
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		evs, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPlayer(evs)
		n, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2000; c++ {
			pl.Tick(n.Cycle(), func(core int, pk *flit.Packet) bool { return n.Inject(core, pk) })
			n.Step()
		}
		if !pl.Done() {
			t.Fatalf("player left %d events pending", len(pl.events)-pl.pos)
		}
		return n.Counters
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replays diverged:\n%+v\n%+v", a, b)
	}
	if a.DeliveredPackets == 0 {
		t.Fatal("replay delivered nothing")
	}
}

// TestPlayerStallsDoNotDrop fills a core's queue and checks deferred events
// are injected later rather than lost.
func TestPlayerStallsDoNotDrop(t *testing.T) {
	var evs []Event
	for i := 0; i < 50; i++ { // 50 singles at cycle 0 from core 0: queue cap 32
		evs = append(evs, Event{Cycle: 0, Core: 0, DstR: 9, VC: uint8(i % 4)})
	}
	pl := NewPlayer(evs)
	n, err := noc.New(noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 1500 && !pl.Done(); c++ {
		pl.Tick(n.Cycle(), func(core int, pk *flit.Packet) bool { return n.Inject(core, pk) })
		n.Step()
	}
	if !pl.Done() {
		t.Fatalf("player stuck with %d events", len(pl.events)-pl.pos)
	}
	if pl.Stalled == 0 {
		t.Fatal("expected stalls with a 32-flit queue and 50 packets")
	}
	n.Run(1000)
	if n.Counters.DeliveredPackets != 50 {
		t.Fatalf("delivered %d of 50", n.Counters.DeliveredPackets)
	}
}

// TestRecordRejectsFewerThanOneCycle: a count below 1 fails without
// rolling the generator or recording anything, where it used to succeed
// with an empty trace that the reader reports as one cycle long.
func TestRecordRejectsFewerThanOneCycle(t *testing.T) {
	cfg := noc.DefaultConfig()
	m, err := traffic.Benchmark("blackscholes", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cycles := range []int{0, -3} {
		w, err := NewWriter(&bytes.Buffer{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Record(w, m.Generator(1), cycles); err == nil {
			t.Errorf("Record over %d cycles succeeded", cycles)
		}
		if w.Count() != 0 {
			t.Errorf("Record over %d cycles wrote %d events", cycles, w.Count())
		}
	}
	w, err := NewWriter(&bytes.Buffer{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Record(w, m.Generator(1), 1); err != nil {
		t.Fatalf("Record over 1 cycle: %v", err)
	}
}
