package noc

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// ckptLoad is a deterministic load plus an observation trace: random
// multi-flit packets at a given rate, occupancy snapshots, telemetry samples
// and every delivery, rendered into bytes. Its RNG is a value, so a copy of
// the load resumes its stream exactly.
type ckptLoad struct {
	rng   xrand.RNG
	rate  float64
	trace []byte
	pkt   flit.Packet
}

func newCkptLoad(seed uint64, rate float64) *ckptLoad {
	return &ckptLoad{rng: *xrand.New(seed), rate: rate, pkt: flit.Packet{Body: make([]uint64, 3)}}
}

// wire installs the per-run wiring a checkpoint does not carry: one
// NACKing link (parked entries and retransmission clocks), the telemetry
// tap and the delivery callback.
func (d *ckptLoad) wire(n *Network) {
	n.SetWire(7, nackWire{})
	n.EnableTelemetry(32)
	n.SetDelivered(func(del Delivery) {
		d.trace = fmt.Appendf(d.trace, "d %d %d %d %+v\n", del.ID, del.Flits, del.Latency, del.Hdr)
	})
}

// run steps the network from its current cycle up to cycle end.
func (d *ckptLoad) run(n *Network, end uint64) {
	cfg := n.Config()
	cores := cfg.Cores()
	for n.Cycle() < end {
		if d.rng.Bool(d.rate) {
			core, dst := d.rng.Intn(cores), d.rng.Intn(cores)
			d.pkt.Hdr = flit.Header{
				VC:   uint8(d.rng.Intn(cfg.VCs)),
				DstR: uint8(cfg.CoreRouter(dst)),
				DstC: uint8(dst % cfg.Concentration),
			}
			d.pkt.Body = d.pkt.Body[:d.rng.Intn(4)]
			n.Inject(core, &d.pkt)
		}
		n.Step()
		if n.Cycle()%25 == 0 {
			n.telemetry.Sample()
			o := n.Occupancy()
			d.trace = fmt.Appendf(d.trace, "o %+v\n", o)
		}
	}
	d.trace = fmt.Appendf(d.trace, "counters %+v\n", n.Counters)
}

// TestCheckpointRestoreResumesExactly: a network saved at cycle k, dirtied,
// reset and restored steps on exactly as the uninterrupted network does —
// same deliveries, occupancy, telemetry and counters — and passes the
// invariant audit right after the restore. Loads span an idle-heavy regime
// (long penalty waits behind the NACKing link) and a congested one.
func TestCheckpointRestoreResumesExactly(t *testing.T) {
	const end = 1500
	for _, rate := range []float64{0.02, 0.9} {
		for _, k := range []uint64{1, 333, 1207} {
			t.Run(fmt.Sprintf("rate%.2f/k%d", rate, k), func(t *testing.T) {
				ref := newCkptLoad(3, rate)
				n := mkNet(t)
				ref.wire(n)
				ref.run(n, k)
				ref.run(n, end)

				d := newCkptLoad(3, rate)
				m := mkNet(t)
				d.wire(m)
				d.run(m, k)
				var ck Checkpoint
				m.Save(&ck)
				resume := *d
				d.run(m, end) // dirty every buffer past the checkpoint
				m.Reset()
				resume.wire(m)
				m.Restore(&ck)
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("restored network breaks an invariant: %v", err)
				}
				resume.run(m, end)
				if !bytes.Equal(ref.trace, resume.trace) {
					t.Fatalf("restored run diverged from the uninterrupted one near byte %d of %d",
						diffAt(ref.trace, resume.trace), len(ref.trace))
				}
			})
		}
	}
}

// TestCheckpointRoundTripAllocatesNothing: once a checkpoint has grown to
// the network's load, saving and restoring allocate nothing.
func TestCheckpointRoundTripAllocatesNothing(t *testing.T) {
	n := mkNet(t)
	d := newCkptLoad(5, 0.9)
	d.wire(n)
	d.run(n, 600)
	var ck Checkpoint
	n.Save(&ck)
	if avg := testing.AllocsPerRun(20, func() {
		n.Save(&ck)
		n.Restore(&ck)
	}); avg != 0 {
		t.Fatalf("warm Save+Restore allocates %.2f times; budget is 0", avg)
	}
}

// TestCheckpointClassifiesEveryField walks the checkpointed components
// field by field. Each field is in the component's embedded state value,
// which Save copies and reset zeroes whole; or it is a buffer, register or
// container Save copies or walks; or it is construction and wiring that a
// checkpoint does not carry, which the restoring caller installs. A field
// added to a component fails here until it is classified, so none can be
// added without deciding whether it is saved. The checkpoint's own records
// hold nothing but a count beside a component's state value.
func TestCheckpointClassifiesEveryField(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		state string   // the embedded state value ("" for none)
		saved []string // copied or walked by Save beside it
		fixed []string // construction and wiring
	}{
		{reflect.TypeFor[Router](), "routerState",
			[]string{"ivcs", "outputs"},
			[]string{"id", "numPorts", "vcs", "bitPV", "ups", "sched"}},
		{reflect.TypeFor[inputVC](), "wormhole", []string{"buf", "head"}, nil},
		{reflect.TypeFor[outputPort](), "portState",
			[]string{"entries", "vcOwner", "credits"},
			[]string{"router", "linkID", "wire", "vcClass", "ejection"}},
		{reflect.TypeFor[NI](), "niState",
			[]string{"queues", "heads", "injLock", "rx"},
			[]string{"router", "cfg", "layout", "sched", "Delivered"}},
		{reflect.TypeFor[Network](), "",
			[]string{"cycle", "nextPacketID", "Counters", "routers", "nis", "sched", "telemetry"},
			[]string{"cfg", "layout", "topo", "links", "route", "baseRoute",
				"routePristine", "vcReclassed", "baseClasses", "schedule", "injScratch"}},
		{reflect.TypeFor[savedVC](), "wormhole", []string{"flits"}, nil},
		{reflect.TypeFor[savedPort](), "portState", []string{"entries"}, nil},
	} {
		classifyFields(t, c.typ, c.state, c.saved, c.fixed)
	}
}

// classifyFields fails for every field of typ that is neither the embedded
// state value nor listed, and for every listed name that is no field.
func classifyFields(t *testing.T, typ reflect.Type, state string, saved, fixed []string) {
	t.Helper()
	listed := append(append([]string{}, saved...), fixed...)
	if state != "" {
		if f, ok := typ.FieldByName(state); !ok || !f.Anonymous || len(f.Index) != 1 {
			t.Errorf("%s does not embed its state value %s", typ.Name(), state)
		}
		listed = append(listed, state)
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !slices.Contains(listed, name) {
			t.Errorf("%s.%s is neither in the state value nor listed as saved or as construction and wiring", typ.Name(), name)
		}
	}
	for _, name := range listed {
		if f, ok := typ.FieldByName(name); !ok || len(f.Index) != 1 {
			t.Errorf("%s has no field %s", typ.Name(), name)
		}
	}
}

// TestStateRecordSizes pins the layouts the field order buys on 64-bit
// targets: the wormhole state packs an input VC into 48 bytes, and the
// checkpoint's VC and port records stay at 24 and 72 bytes.
func TestStateRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layouts pinned for 64-bit targets")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"inputVC", unsafe.Sizeof(inputVC{}), 48},
		{"savedVC", unsafe.Sizeof(savedVC{}), 24},
		{"savedPort", unsafe.Sizeof(savedPort{}), 72},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
