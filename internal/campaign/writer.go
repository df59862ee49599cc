package campaign

import (
	"os"
	"sync"
)

// encoded is one point's JSONL line in flight from a worker to the writer.
type encoded struct {
	index int
	buf   []byte
}

// writer serialises worker output back into grid order and commits it with
// periodic checkpoints. Workers finish points out of order (fork groups
// span the grid, and point costs differ); the writer holds early arrivals
// in pending until the next expected index lands, so the file's bytes never
// depend on worker count or scheduling.
//
// All shared mutable state of a sweep lives here, single-goroutine; the
// workers only communicate over the results channel.
type writer struct {
	f         *os.File
	ckptPath  string
	ckptEvery int
	specHash  uint64

	next    int // next grid index to commit
	written int // records committed over the sweep's whole life
	offset  int64
	dirty   int // records since the last checkpoint
	pending map[int][]byte
	pool    *bufPool // recycled line buffers back to the workers

	onRecord func(written int)
}

// commit writes every consecutively-available record starting at next.
func (w *writer) commit(e encoded) error {
	w.pending[e.index] = e.buf
	for {
		buf, ok := w.pending[w.next]
		if !ok {
			return nil
		}
		delete(w.pending, w.next)
		if _, err := w.f.Write(buf); err != nil {
			return err
		}
		w.offset += int64(len(buf))
		w.next++
		w.written++
		w.dirty++
		w.pool.put(buf)
		if w.ckptEvery > 0 && w.dirty >= w.ckptEvery {
			if err := w.checkpoint(); err != nil {
				return err
			}
		}
		if w.onRecord != nil {
			w.onRecord(w.written)
		}
	}
}

// checkpoint flushes the output file and commits the sidecar. The data is
// synced before the checkpoint is written: the checkpoint must never claim
// bytes the filesystem could still lose.
func (w *writer) checkpoint() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := writeCheckpoint(w.ckptPath, Checkpoint{
		SpecHash: w.specHash,
		Written:  w.written,
		Offset:   w.offset,
	}); err != nil {
		return err
	}
	w.dirty = 0
	return nil
}

// bufPool recycles record buffers between the writer and the workers. It
// keeps every buffer it is given: the writer holds a fork group's later
// members until the points between them commit, so the number of buffers
// in flight follows the grid's group layout, and a bounded pool would drop
// and reallocate them group after group.
type bufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns an empty recycled buffer, or nil when none is free.
func (p *bufPool) get() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.free)
	if k == 0 {
		return nil
	}
	buf := p.free[k-1]
	p.free = p.free[:k-1]
	return buf[:0]
}

// put returns a committed record's buffer to the pool.
func (p *bufPool) put(buf []byte) {
	p.mu.Lock()
	p.free = append(p.free, buf)
	p.mu.Unlock()
}
