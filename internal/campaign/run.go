package campaign

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"tasp/internal/core"
)

// Options configures a sweep execution.
type Options struct {
	// Workers is the pool size (0 = GOMAXPROCS). The output bytes are
	// identical at any worker count.
	Workers int
	// CheckpointEvery commits a checkpoint every N records (0 = 64).
	CheckpointEvery int
	// Resume continues a previous run of the same spec from its checkpoint:
	// the output file is truncated to the last committed byte and the sweep
	// restarts at the first uncommitted point.
	Resume bool
	// OnRecord, when set, is called after each committed record with the
	// total committed so far (progress reporting; also the test hook that
	// kills runs mid-sweep).
	OnRecord func(written int)
}

// StoppedError is Run's error for a sweep that started and stopped early:
// cancelled, failed at a point, or unable to write its output. The records
// committed before the stop stay valid, so a Resume can finish the output.
// Run returns any failure before the sweep starts (an invalid grid, a
// missing, corrupt or stale checkpoint) as it is.
type StoppedError struct{ Err error }

func (e *StoppedError) Error() string { return e.Err.Error() }
func (e *StoppedError) Unwrap() error { return e.Err }

// Run executes a spec's grid into a JSONL file at outPath (one Record per
// point, in grid order) with a checkpoint sidecar next to it. It returns
// the number of records committed over the run's whole life (including a
// resumed prefix). A context cancellation stops the sweep at a record
// boundary — already-committed output stays valid for Resume — and returns
// a StoppedError wrapping ctx.Err(). A failing point stops it too, without
// cancelling the points in flight: no further group is handed out and the
// groups in flight finish, so the output is committed up to the first point
// that failed or never ran, and the StoppedError names the lowest failing
// point.
func Run(ctx context.Context, spec Spec, outPath string, opt Options) (int, error) {
	if err := spec.checkSize(); err != nil {
		return 0, err
	}
	scenarios := spec.Expand()
	hash := spec.Hash()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ckptEvery := opt.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 64
	}
	ckptPath := CheckpointPath(outPath)

	start := 0
	var offset int64
	if opt.Resume {
		ck, ok, err := ReadCheckpoint(ckptPath)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("resume: no checkpoint at %s", ckptPath)
		}
		if ck.SpecHash != hash {
			return 0, fmt.Errorf("resume: checkpoint %s was written by a different spec", ckptPath)
		}
		if ck.Written > len(scenarios) {
			return 0, fmt.Errorf("resume: checkpoint claims %d records but the grid has %d points", ck.Written, len(scenarios))
		}
		start, offset = ck.Written, ck.Offset
	}

	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if opt.Resume {
		flags = os.O_CREATE | os.O_RDWR // the committed records are read back
	}
	f, err := os.OpenFile(outPath, flags, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if opt.Resume {
		// The checkpoint must describe THIS file: truncating to an offset
		// beyond the end would zero-extend the JSONL (sparse NULs), silently
		// breaking byte-determinism. A longer offset means the sidecar is
		// stale or belongs to a different output file.
		st, err := f.Stat()
		if err != nil {
			return 0, err
		}
		if offset > st.Size() {
			return 0, fmt.Errorf("resume: checkpoint %s claims offset %d but %s is only %d bytes (stale or foreign checkpoint)",
				ckptPath, offset, outPath, st.Size())
		}
		// Truncating to an offset that is not the end of the committed
		// records would lose some or splice a torn one into the output.
		if err := countRecords(f, offset, start); err != nil {
			return 0, fmt.Errorf("resume: checkpoint %s claims %d records in %s at offset %d, but %w (stale or foreign checkpoint)",
				ckptPath, start, outPath, offset, err)
		}
		// Drop any partial record written after the last checkpoint.
		if err := f.Truncate(offset); err != nil {
			return 0, err
		}
		if _, err := f.Seek(offset, 0); err != nil {
			return 0, err
		}
	}

	w := &writer{
		f:         f,
		ckptPath:  ckptPath,
		ckptEvery: ckptEvery,
		specHash:  hash,
		next:      start,
		written:   start,
		offset:    offset,
		pending:   map[int][]byte{},
		pool:      &bufPool{},
		onRecord:  opt.OnRecord,
	}

	// The remaining points are cut into fork groups (core.Groups): points
	// whose warm-ups the network cannot tell apart, which a core.Runner
	// simulates once per group. Workers pull the next group from a shared
	// counter and run its members in the order RunGroup picks; the
	// in-order writer restores grid order, so the output depends only on
	// per-point determinism. A resumed run groups only the uncommitted
	// points, so a partly committed group restarts at its first
	// uncommitted member.
	groups := core.Groups(len(scenarios)-start, workers, func(i int) (core.ExperimentConfig, error) {
		return scenarios[start+i].Config()
	})
	var next atomic.Int64
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan encoded, workers)
	// Each worker's failing point, if any, by grid index; read once the
	// results channel has closed, after every worker has returned.
	failAt := make([]int, workers)
	failErr := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &worker{ctx: runCtx, scenarios: scenarios, start: start, pool: w.pool, results: results}
			if failAt[k], failErr[k] = wk.run(groups, &next); failErr[k] != nil {
				next.Store(int64(len(groups))) // hand out no further group
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var failed error
	for e := range results {
		if failed != nil {
			continue // drain so workers aren't blocked on send
		}
		if err := w.commit(e); err != nil {
			failed = err
			cancel()
		}
	}
	if failed == nil {
		at := len(scenarios)
		for k, err := range failErr {
			if err != nil && failAt[k] < at {
				at, failed = failAt[k], err
			}
		}
	}
	if failed == nil {
		failed = ctx.Err()
	}
	// Commit what we have — on success, cancellation and worker failure
	// alike — so the run is resumable from the last complete record.
	if w.dirty > 0 || w.written == start {
		if err := w.checkpoint(); err != nil && failed == nil {
			failed = err
		}
	}
	if failed != nil {
		return w.written, &StoppedError{failed}
	}
	return w.written, nil
}

// worker is one sweep goroutine. Its core.Runner runs the groups it takes
// (core.Runner.RunGroups), and it fills and encodes every point's record
// into a recycled buffer for the writer. One Runner per worker: repeated
// points on the same platform reuse its arenas, which is where the
// engine's 0 allocs/point steady state comes from, and a group's members
// share its warm-up checkpoint. Indices are those of the points left to
// run; scenario start+i is point i.
type worker struct {
	ctx       context.Context
	scenarios []Scenario
	start     int
	pool      *bufPool
	results   chan<- encoded
	res       core.Results // every point's results: RunGroup reuses them
	rec       Record
}

// run runs groups until none is left, the sweep is cancelled, or a point
// fails, and then returns the failing point's grid index and error.
func (w *worker) run(groups [][]int, next *atomic.Int64) (int, error) {
	i, err := core.NewRunner().RunGroups(w.ctx, groups, next, w.config, w.into, w.emit)
	if err != nil {
		return w.start + i, fmt.Errorf("point %d: %w", w.start+i, err)
	}
	return 0, nil
}

// config lowers point i.
func (w *worker) config(i int) (core.ExperimentConfig, error) {
	return w.scenarios[w.start+i].Config()
}

// into hands every point the worker's one Results.
func (w *worker) into(int) *core.Results { return &w.res }

// emit fills and encodes point i's record and sends it to the writer.
func (w *worker) emit(i int, cfg *core.ExperimentConfig, res *core.Results) error {
	i += w.start
	w.rec.identify(i, &w.scenarios[i], cfg)
	w.rec.Fill(res)
	buf := w.rec.AppendJSONL(w.pool.get())
	//nocvet:nondet commit order is index-restored by the writer; the race only decides shutdown timing
	select {
	case w.results <- encoded{index: i, buf: buf}:
		return nil
	case <-w.ctx.Done():
		return w.ctx.Err()
	}
}
