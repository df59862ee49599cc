package traffic

import (
	"fmt"
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
)

// traceTicks renders n cycles of generated traffic as comparable strings.
// With fresh set each cycle draws into a new scratch packet; otherwise one
// scratch packet serves the whole run.
func traceTicks(g *Generator, n int, fresh bool) []string {
	var out []string
	record := func(core int, p *flit.Packet) bool {
		out = append(out, fmt.Sprintf("%d %+v %v", core, p.Hdr, p.Body))
		return true
	}
	var scratch flit.Packet
	for i := 0; i < n; i++ {
		if fresh {
			scratch = flit.Packet{}
		}
		g.TickInto(&scratch, record)
	}
	return out
}

// TestTickIntoMatchesTick is the draw-order contract the campaign arenas
// depend on: TickInto with one reused scratch packet must generate the exact
// packet stream it does with a fresh packet every cycle, so nothing a
// previous packet left in the scratch leaks into the next, and Reset must
// rewind a generator to that same stream.
func TestTickIntoMatchesTick(t *testing.T) {
	cfg := noc.DefaultConfig()
	for _, name := range []string{"fft", "blackscholes", "canneal"} {
		m, err := Benchmark(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := traceTicks(m.Generator(42), 400, true)
		g := m.Generator(42)
		got := traceTicks(g, 400, false)
		if len(ref) == 0 {
			t.Fatalf("%s: no packets generated", name)
		}
		if fmt.Sprint(ref) != fmt.Sprint(got) {
			t.Fatalf("%s: a reused scratch packet changed the stream (%d vs %d packets)", name, len(ref), len(got))
		}
		g.Reset(42)
		if again := traceTicks(g, 400, false); fmt.Sprint(again) != fmt.Sprint(ref) {
			t.Fatalf("%s: Reset(42) did not rewind the generator to the fresh stream", name)
		}
		g.Reset(43)
		if other := traceTicks(g, 400, false); fmt.Sprint(other) == fmt.Sprint(ref) {
			t.Fatalf("%s: Reset(43) produced the seed-42 stream", name)
		}
	}
}

// TestPacketIntoReusesBody pins the steady-state allocation behaviour: once
// the scratch packet's body storage has grown, PacketInto must not allocate.
func TestPacketIntoReusesBody(t *testing.T) {
	m, err := Benchmark("fft", noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := m.Generator(7)
	var p flit.Packet
	g.PacketInto(0, &p) // warm the body storage
	for p.Body == nil {
		g.PacketInto(0, &p)
	}
	if avg := testing.AllocsPerRun(500, func() { g.PacketInto(0, &p) }); avg > 0 {
		t.Fatalf("warmed PacketInto allocates %.3f times per call; budget is 0", avg)
	}
}
