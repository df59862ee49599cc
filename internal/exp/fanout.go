package exp

import (
	"sync"
	"sync/atomic"
)

// fanOut runs fn(worker, i) exactly once for every i in [0, n), on
// min(width, n) goroutines, and returns the error of the lowest failing
// index (nil when none fails). worker is in [0, min(width, n)) and no two
// concurrent calls share one, so fn may index per-worker state such as a
// core.Runner without locking. Indices are handed out in ascending order;
// fn stores its result by index, which keeps the collected output
// independent of the schedule. A width <= 1 runs every index on the calling
// goroutine, in order, as worker 0.
func fanOut(width, n int, fn func(worker, i int) error) error {
	errs := make([]error, n)
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := range errs {
			errs[i] = fn(0, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(width)
		for w := 0; w < width; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(w, i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
