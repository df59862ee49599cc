package exp

import (
	"fmt"

	"tasp/internal/core"
	"tasp/internal/flit"
	"tasp/internal/migrate"
	"tasp/internal/noc"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// MigrationStudy evaluates the OS response the paper suggests as a
// complement to L-Ob: migrating the victim application out of the trojan's
// hunting region. Four configurations run the Figure 11 attack: no
// response, L-Ob only, migration only, and both. Migration rescues the
// victim application's goodput even without obfuscation — but whoever the
// OS moves *into* the hot region inherits the attack, so only L-Ob (or
// both) also saves chip-wide throughput.
func MigrationStudy(seed uint64) (Table, error) {
	t := Table{
		Title:   "Extension: OS process migration as a complement to L-Ob (Figure 11 attack)",
		Columns: []string{"response", "victim goodput (pkts)", "total tput", "blocked routers", "migrations"},
		Notes: []string{
			"migration retargets only *future* traffic: flits already wedged in the retransmission buffers still carry the old destination and stall forever (dropping is unsupported), so the saturation tree persists and the displaced processes inherit the attack — migration complements L-Ob, it cannot replace it",
		},
	}
	cases := []struct {
		name    string
		lob     bool
		migrate bool
	}{
		{"none", false, false},
		{"s2s l-ob", true, false},
		{"migration", false, true},
		{"l-ob + migration", true, true},
	}
	rows := make([][]string, len(cases))
	err := fanOut(DefaultWorkers(), len(cases), func(_, i int) error {
		row, err := runMigrationCase(seed, cases[i].lob, cases[i].migrate)
		rows[i] = append([]string{cases[i].name}, row...)
		return err
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

// runMigrationCase runs one Figure 11 attack with the chosen responses.
func runMigrationCase(seed uint64, useLOb, useMigration bool) ([]string, error) {
	ncfg := noc.DefaultConfig()
	net, err := noc.New(ncfg)
	if err != nil {
		return nil, err
	}
	model, err := traffic.Benchmark("blackscholes", ncfg)
	if err != nil {
		return nil, err
	}
	const (
		victim      = 0
		warmup      = 1500
		measure     = 1500
		detectDelay = 250
	)
	target := tasp.ForDest(victim)
	infected := core.ChooseInfectedLinks(model, ncfg, net.LinkSlice(), 2, target)
	trojans := make([]*tasp.HT, 0, len(infected))
	for _, l := range net.LinkSlice() {
		var ht *tasp.HT
		for _, id := range infected {
			if id == l.ID {
				ht = tasp.New(target, tasp.DefaultPayloadBits, net.Layout())
				trojans = append(trojans, ht)
			}
		}
		var w *core.SecureWire
		if ht != nil {
			w = core.NewSecureWire(ht, seed^uint64(l.ID), net.Layout())
		} else {
			w = core.NewSecureWire(nil, seed^uint64(l.ID), net.Layout())
		}
		w.Mitigated = useLOb
		net.SetWire(l.ID, w)
	}

	mig := migrate.New(ncfg)
	var victimGoodput uint64
	net.SetDelivered(func(d noc.Delivery) {
		if net.Cycle() >= warmup && mig.LogRouter(int(d.Hdr.DstR)) == victim {
			victimGoodput++
		}
	})

	gen := model.Generator(seed)
	inject := func(coreID int, p *flit.Packet) bool {
		phys := mig.PhysCore(coreID)
		if mig.Paused(net.Cycle(), ncfg.CoreRouter(phys)) {
			return false
		}
		mig.Rewrite(p)
		return net.Inject(phys, p)
	}

	var atEnable noc.Counters
	var pendingTransfer []*flit.Packet
	var scratch flit.Packet
	for c := 0; c < warmup+measure; c++ {
		if net.Cycle()+1 == warmup {
			for _, ht := range trojans {
				ht.SetKillSwitch(true)
			}
		}
		gen.TickInto(&scratch, inject)
		// Drain pending state-transfer packets a few per cycle.
		for i := 0; i < 2 && len(pendingTransfer) > 0; i++ {
			p := pendingTransfer[0]
			src := int(p.Hdr.Mem>>16) & 0xff // stashed source core
			if net.Inject(src, p) {
				pendingTransfer = pendingTransfer[1:]
			} else {
				break
			}
		}
		net.Step()
		if net.Cycle() == warmup {
			atEnable = net.Counters
		}
		if useMigration && mig.Moves == 0 && net.Cycle() >= warmup+detectDelay {
			fromPhys := mig.PhysRouter(victim)
			donor := migrate.PlanTarget(ncfg, net.LinkSlice(), infected, fromPhys)
			mig.Evacuate(victim, donor, net.Cycle())
			for i, p := range mig.StateTransfer(fromPhys, donor, 24) {
				src := fromPhys*ncfg.Concentration + i%ncfg.Concentration
				p.Hdr.Mem = uint32(src) << 16
				pendingTransfer = append(pendingTransfer, p)
			}
		}
	}

	tput := float64(net.Counters.DeliveredPackets-atEnable.DeliveredPackets) / measure
	blocked := net.Occupancy().BlockedRouters
	return []string{
		fmt.Sprintf("%d", victimGoodput),
		f3(tput),
		fmt.Sprintf("%d/%d", blocked, ncfg.Routers()),
		fmt.Sprintf("%d", mig.Moves),
	}, nil
}
