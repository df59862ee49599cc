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

// Run executes a spec's grid into a JSONL file at outPath (one Record per
// point, in grid order) with a checkpoint sidecar next to it. It returns
// the number of records committed over the run's whole life (including a
// resumed prefix). A context cancellation stops the sweep at a record
// boundary — already-committed output stays valid for Resume — and returns
// ctx.Err().
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
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := worker(runCtx, scenarios, start, groups, &next, w.pool, results); err != nil {
				errs <- err
				cancel()
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
		select {
		case failed = <-errs:
		default:
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
	return w.written, failed
}

// worker pulls groups from next until none is left, runs each group's
// points with RunGroup and encodes every result into a recycled buffer.
// One core.Runner per worker: repeated points on the same platform reuse
// its arenas, which is where the engine's 0 allocs/point steady state comes
// from, and a group's members share its warm-up checkpoint.
func worker(ctx context.Context, scenarios []Scenario, start int, groups [][]int, next *atomic.Int64, pool *bufPool, results chan<- encoded) error {
	runner := core.NewRunner()
	res := &core.Results{} //nocvet:allowalloc once per worker, not per point; RunGroup reuses it
	var rec Record
	var members []int
	var cfgs []core.ExperimentConfig
	cur := 0 // the member RunGroup is running
	//nocvet:allowalloc once per worker, not per point: RunGroup's result storage callback
	into := func(k int) *core.Results {
		cur = k
		return res
	}
	//nocvet:allowalloc once per worker, not per point: RunGroup's per-member callback
	emit := func(k int, res *core.Results) error {
		i := start + members[k]
		rec.identify(i, &scenarios[i], &cfgs[k])
		rec.Fill(res)
		buf := rec.AppendJSONL(pool.get())
		//nocvet:nondet commit order is index-restored by the writer; the race only decides shutdown timing
		select {
		case results <- encoded{index: i, buf: buf}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for ctx.Err() == nil {
		g := int(next.Add(1)) - 1
		if g >= len(groups) {
			return nil
		}
		members, cfgs = groups[g], cfgs[:0]
		for _, k := range members {
			cfg, err := scenarios[start+k].Config()
			if err != nil {
				return fmt.Errorf("point %d: %w", start+k, err) //nocvet:allowalloc error path aborts the sweep
			}
			cfgs = append(cfgs, cfg) //nocvet:allowalloc amortized: grows to the largest group once per worker
		}
		if err := runner.RunGroup(cfgs, into, emit); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("point %d: %w", start+members[cur], err) //nocvet:allowalloc error path aborts the sweep
		}
	}
	return nil
}
