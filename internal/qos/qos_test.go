package qos

import (
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
)

func TestDomainAssignments(t *testing.T) {
	tdm := NewTDM(noc.DefaultConfig())
	if tdm.DomainOfCore(0) != 0 || tdm.DomainOfCore(1) != 1 || tdm.DomainOfCore(62) != 0 {
		t.Fatal("core domain interleave broken")
	}
	if tdm.DomainOfVC(0) != 0 || tdm.DomainOfVC(1) != 0 || tdm.DomainOfVC(2) != 1 || tdm.DomainOfVC(3) != 1 {
		t.Fatal("vc domain split broken")
	}
}

func TestVCsOfPartition(t *testing.T) {
	tdm := NewTDM(noc.DefaultConfig())
	d0, d1 := tdm.VCsOf(0), tdm.VCsOf(1)
	if len(d0) != 2 || len(d1) != 2 {
		t.Fatalf("vc partition sizes: %d, %d", len(d0), len(d1))
	}
	seen := map[uint8]bool{}
	for _, v := range append(d0, d1...) {
		if seen[v] {
			t.Fatalf("vc %d in both domains", v)
		}
		seen[v] = true
	}
}

func TestAssignVCStaysInDomain(t *testing.T) {
	tdm := NewTDM(noc.DefaultConfig())
	for core := 0; core < 8; core++ {
		want := tdm.DomainOfCore(core)
		for seq := uint8(0); seq < 10; seq++ {
			vc := tdm.AssignVC(core, seq)
			if tdm.DomainOfVC(int(vc)) != want {
				t.Fatalf("core %d seq %d assigned vc %d outside domain %d", core, seq, vc, want)
			}
		}
	}
}

func TestScheduleParity(t *testing.T) {
	tdm := NewTDM(noc.DefaultConfig())
	for cyc := uint64(0); cyc < 10; cyc++ {
		for vc := uint8(0); vc < 4; vc++ {
			want := int(cyc)%2 == tdm.DomainOfVC(int(vc))
			if got := tdm.Schedule(cyc, vc); got != want {
				t.Fatalf("schedule(%d, vc%d) = %v", cyc, vc, got)
			}
		}
	}
	// Exactly one domain owns any given cycle.
	for cyc := uint64(0); cyc < 4; cyc++ {
		if tdm.Schedule(cyc, 0) == tdm.Schedule(cyc, 2) {
			t.Fatalf("cycle %d admits both domains", cyc)
		}
	}
}

// TestTDMNonInterference runs two domains on a real network and checks the
// link schedule slows but never starves either domain.
func TestTDMNonInterference(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.PartitionRetrans = true
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tdm := NewTDM(cfg)
	n.SetLinkSchedule(tdm.Schedule)

	delivered := map[int]int{}
	n.SetDelivered(func(d noc.Delivery) {
		delivered[tdm.DomainOfVC(int(d.Hdr.VC))]++
	})
	for core := 0; core < cfg.Cores(); core += 2 {
		for i := 0; i < 2; i++ {
			p := &flit.Packet{Hdr: flit.Header{
				VC:   tdm.AssignVC(core, uint8(i)),
				DstR: uint8((core + 7 + i) % 16),
			}}
			n.Inject(core, p)
			p2 := &flit.Packet{Hdr: flit.Header{
				VC:   tdm.AssignVC(core+1, uint8(i)),
				DstR: uint8((core + 11 + i) % 16),
			}}
			n.Inject(core+1, p2)
		}
	}
	n.Run(2000)
	if delivered[0] == 0 || delivered[1] == 0 {
		t.Fatalf("a domain starved: %v", delivered)
	}
}

func TestOccupancyOfSplitsDomains(t *testing.T) {
	cfg := noc.DefaultConfig()
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tdm := NewTDM(cfg)
	// Queue a domain-0 packet only; its flits must appear in D0's snapshot.
	p := &flit.Packet{Hdr: flit.Header{VC: 0, DstR: 9}, Body: []uint64{1, 2, 3, 4}}
	n.Inject(0, p) // core 0 is domain 0
	n.Run(3)
	d0 := tdm.OccupancyOf(n, 0)
	d1 := tdm.OccupancyOf(n, 1)
	if d0.InjectionFlit+d0.InputFlits+d0.OutputFlits == 0 {
		t.Fatal("domain 0 snapshot empty despite traffic")
	}
	if d1.InjectionFlit+d1.InputFlits+d1.OutputFlits != 0 {
		t.Fatalf("domain 1 snapshot leaked domain 0 traffic: %+v", d1)
	}
}
