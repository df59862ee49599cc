// Package trace records and replays packet injection traces. The paper
// drives its simulator with "real traffic distributions from the PARSEC and
// SPLASH-2 benchmark suites"; this package provides the equivalent
// trace-driven mode: capture any workload (including the statistical
// models) into a compact binary trace once, then replay it bit-identically
// across experiments, so every configuration sees exactly the same offered
// traffic.
//
// Format (little endian): an 16-byte header — 8-byte magic "TASPTRC1",
// uint16 cores, uint16 routers, uint32 record count — followed by 16-byte
// records: uint32 cycle, uint16 core, uint8 dstR, uint8 dstC, uint8 vc,
// uint8 bodyFlits, uint16 seq(+pad), uint32 mem.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"tasp/internal/flit"
	"tasp/internal/noc"
)

// Magic identifies trace files.
const Magic = "TASPTRC1"

// Event is one packet injection.
type Event struct {
	Cycle uint32
	Core  uint16
	DstR  uint8
	DstC  uint8
	VC    uint8
	Body  uint8 // body flit count (0 = single-flit packet)
	Seq   uint8
	Mem   uint32
}

// Packet materialises the event's packet. Body payloads are synthesised
// deterministically from the event fields (traces carry shape, not data).
func (e Event) Packet() *flit.Packet {
	p := &flit.Packet{Hdr: flit.Header{
		VC:   e.VC,
		DstR: e.DstR,
		DstC: e.DstC,
		Mem:  e.Mem,
		Seq:  e.Seq,
	}}
	for i := 0; i < int(e.Body); i++ {
		p.Body = append(p.Body, uint64(e.Mem)<<16|uint64(e.Core)<<4|uint64(i))
	}
	return p
}

// Writer streams events to a trace file.
type Writer struct {
	w      *bufio.Writer
	cores  uint16
	nRec   uint32
	closed bool
	// sink retains the header position trick: we buffer everything and
	// patch the count on Close via the caller providing io.WriteSeeker, or
	// we write count last in a trailer. Simpler: trailer-free, count
	// patched by Close when the underlying writer supports Seek.
	under io.Writer
}

// NewWriter starts a trace for the given platform.
func NewWriter(w io.Writer, cfg noc.Config) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w), under: w, cores: uint16(cfg.Cores())}
	hdr := make([]byte, 16)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint16(hdr[8:], uint16(cfg.Cores()))
	binary.LittleEndian.PutUint16(hdr[10:], uint16(cfg.Routers()))
	// Record count is unknown until Close; zero means "until EOF".
	if _, err := tw.w.Write(hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// Add appends one event.
func (w *Writer) Add(e Event) error {
	if w.closed {
		return fmt.Errorf("trace: writer closed")
	}
	if e.Core >= w.cores {
		return fmt.Errorf("trace: core %d out of range (%d cores)", e.Core, w.cores)
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], e.Cycle)
	binary.LittleEndian.PutUint16(rec[4:], e.Core)
	rec[6] = e.DstR
	rec[7] = e.DstC
	rec[8] = e.VC
	rec[9] = e.Body
	rec[10] = e.Seq
	binary.LittleEndian.PutUint32(rec[12:], e.Mem)
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	w.nRec++
	return nil
}

// Count returns the number of events written so far.
func (w *Writer) Count() uint32 { return w.nRec }

// Close flushes the stream and, when the underlying writer is seekable,
// patches the record count into the header.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		return err
	}
	if s, ok := w.under.(io.WriteSeeker); ok {
		if _, err := s.Seek(12, io.SeekStart); err != nil {
			return err
		}
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], w.nRec)
		if _, err := s.Write(cnt[:]); err != nil {
			return err
		}
		if _, err := s.Seek(0, io.SeekEnd); err != nil {
			return err
		}
	}
	return nil
}

// Reader parses a trace file.
type Reader struct {
	r       *bufio.Reader
	Cores   int
	Routers int
	// Declared is the header's record count (0 = stream until EOF).
	Declared uint32
	read     uint32
}

// NewReader validates the header and prepares to stream events.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(hdr[:8]) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:8])
	}
	return &Reader{
		r:        br,
		Cores:    int(binary.LittleEndian.Uint16(hdr[8:])),
		Routers:  int(binary.LittleEndian.Uint16(hdr[10:])),
		Declared: binary.LittleEndian.Uint32(hdr[12:]),
	}, nil
}

// Next returns the next event, or io.EOF at the end.
func (r *Reader) Next() (Event, error) {
	if r.Declared > 0 && r.read >= r.Declared {
		return Event{}, io.EOF
	}
	var rec [16]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Event{}, fmt.Errorf("trace: truncated record")
		}
		return Event{}, err
	}
	r.read++
	return Event{
		Cycle: binary.LittleEndian.Uint32(rec[0:]),
		Core:  binary.LittleEndian.Uint16(rec[4:]),
		DstR:  rec[6],
		DstC:  rec[7],
		VC:    rec[8],
		Body:  rec[9],
		Seq:   rec[10],
		Mem:   binary.LittleEndian.Uint32(rec[12:]),
	}, nil
}

// ReadAll drains the remaining events.
func (r *Reader) ReadAll() ([]Event, error) {
	var out []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Player replays a loaded trace against a network: at each Tick it injects
// every event whose cycle has come due. Events rejected by a full injection
// queue are retried the next cycle (the source stalls, it does not drop).
type Player struct {
	events []Event
	pos    int
	// Stalled counts injection attempts deferred by full queues.
	Stalled uint64
}

// NewPlayer wraps a fully loaded event list (must be cycle-sorted, which
// recorded traces are by construction).
func NewPlayer(events []Event) *Player {
	return &Player{events: events}
}

// Tick injects all due events.
func (p *Player) Tick(cycle uint64, inject func(core int, pk *flit.Packet) bool) {
	for p.pos < len(p.events) && uint64(p.events[p.pos].Cycle) <= cycle {
		e := p.events[p.pos]
		if !inject(int(e.Core), e.Packet()) {
			p.Stalled++
			return // retry this and later events next cycle
		}
		p.pos++
	}
}

// Done reports whether every event has been injected.
func (p *Player) Done() bool { return p.pos >= len(p.events) }

// Record captures a workload model into a trace: it rolls the generator for
// the given cycles against a virtual unlimited sink (no network), recording
// every packet the model offers.
func Record(w *Writer, gen interface {
	TickInto(scratch *flit.Packet, inject func(core int, p *flit.Packet) bool)
}, cycles int) error {
	var scratch flit.Packet
	for c := 0; c < cycles; c++ {
		var err error
		gen.TickInto(&scratch, func(core int, p *flit.Packet) bool {
			if err != nil {
				return false
			}
			err = w.Add(Event{
				Cycle: uint32(c),
				Core:  uint16(core),
				DstR:  p.Hdr.DstR,
				DstC:  p.Hdr.DstC,
				VC:    p.Hdr.VC,
				Body:  uint8(len(p.Body)),
				Seq:   p.Hdr.Seq,
				Mem:   p.Hdr.Mem,
			})
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
