package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// goroutineID parses the running goroutine's id from its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestFanOutRunsEveryIndexOnce checks that each index runs exactly once,
// that worker numbers stay in [0, min(width, n)), and that no two
// concurrent calls share a worker number (so per-worker state needs no
// lock).
func TestFanOutRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ width, n int }{
		{1, 5}, {2, 5}, {3, 32}, {4, 2}, {8, 8}, {0, 3}, {-1, 3}, {4, 0},
	} {
		runs := make([]atomic.Int32, tc.n)
		busy := make([]atomic.Bool, max(tc.width, 1))
		err := fanOut(tc.width, tc.n, func(w, i int) error {
			if w < 0 || w >= max(min(tc.width, tc.n), 1) {
				return fmt.Errorf("index %d got worker %d", i, w)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("worker %d used by two calls at once", w)
			}
			defer busy[w].Store(false)
			runs[i].Add(1)
			runtime.Gosched() // let other workers interleave
			return nil
		})
		if err != nil {
			t.Fatalf("width %d n %d: %v", tc.width, tc.n, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("width %d n %d: index %d ran %d times", tc.width, tc.n, i, got)
			}
		}
	}
}

// TestFanOutLowestIndexErrorWins checks that when several indices fail,
// the error returned is the lowest failing index's, at any width, and that
// a failure does not stop the other indices from running.
func TestFanOutLowestIndexErrorWins(t *testing.T) {
	failing := map[int]bool{3: true, 5: true, 17: true}
	for _, width := range []int{1, 2, 4, 32} {
		var ran atomic.Int32
		err := fanOut(width, 20, func(_, i int) error {
			ran.Add(1)
			if failing[i] {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3 failed" {
			t.Fatalf("width %d: got error %v, want index 3's", width, err)
		}
		if ran.Load() != 20 {
			t.Fatalf("width %d: %d of 20 indices ran", width, ran.Load())
		}
	}
}

// TestFanOutSerialRunsInOrderOnCaller checks that a width <= 1 runs every
// index in ascending order, as worker 0, on the calling goroutine.
func TestFanOutSerialRunsInOrderOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, width := range []int{1, 0, -3} {
		var order []int
		err := fanOut(width, 6, func(w, i int) error {
			if w != 0 {
				return fmt.Errorf("index %d ran as worker %d", i, w)
			}
			if g := goroutineID(); g != caller {
				return fmt.Errorf("index %d ran on goroutine %s, caller is %s", i, g, caller)
			}
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
			t.Fatalf("width %d: ran in order %v", width, order)
		}
	}
}
