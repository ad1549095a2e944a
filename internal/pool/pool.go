// Package pool provides the bounded worker pool shared by the parallel
// fan-out loops: the core witness-search loops (Basic, OptSigmaAll), course
// grading, and the experiment driver. Every fan-out is an index space [0, n) whose
// iterations share no mutable state; callers collect results into
// per-index slots, so output order — and therefore observable behavior —
// stays deterministic regardless of scheduling.
//
// The pool is also the process's panic-isolation boundary: a panic in a
// fan-out body is recovered inside the worker, converted into a
// *PanicError carrying the index and stack, and returned from ForEach like
// any other error — it never kills the process or strands the remaining
// workers. Goroutines in this package and internal/server are spawned only
// through Go, the recover-wrapping helper (enforced by the gorecover
// analyzer in ratestlint).
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// DefaultWorkers is the parallelism the fan-out loops use unless a caller
// picks its own: one worker per available CPU. Tests override it to force
// serial or oversubscribed execution.
var DefaultWorkers = runtime.GOMAXPROCS(0)

// PanicError is a panic recovered at the pool's isolation boundary: the
// panic value, the stack captured at the recovery point, and the fan-out
// index whose body panicked (-1 for a goroutine not bound to an index).
// It travels up the call chain as an ordinary error — errors.As-able — so
// the serving layer can convert it into a structured 500 and log the stack
// without the process dying.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: panic in fan-out index %d: %v", e.Index, e.Value)
}

// Protect runs fn(i), converting a panic into a *PanicError carrying i.
func Protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Go launches fn on its own goroutine under panic isolation: a panic in fn
// is recovered and handed to onPanic as a *PanicError (onPanic may be nil
// to discard it) instead of crashing the process. It is the approved way
// to spawn goroutines in this package and internal/server; the gorecover
// analyzer flags raw go statements there.
func Go(fn func(), onPanic func(*PanicError)) {
	//lint:gorecover this is the spawn helper itself; the deferred recover below is the wrapper every other goroutine routes through
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if onPanic != nil {
					onPanic(&PanicError{Index: -1, Value: r, Stack: debug.Stack()})
				}
			}
		}()
		fn()
	}()
}

// ForEach runs fn(i) for i in [0, n), spreading the calls over at most
// workers goroutines (serial when workers <= 1 or n <= 1). Iterations are
// claimed in index order. Once any call fails, remaining unstarted calls
// are skipped and ForEach returns the lowest-indexed error among the calls
// that ran. With a single failing index the reported error is therefore
// deterministic; when several indices would fail, which of them ran before
// the stop flag was observed can depend on scheduling.
//
// A panicking fn is equivalent to fn returning a *PanicError for its
// index: the panic is recovered inside the worker (the worker keeps its
// goroutine, the WaitGroup stays balanced, no slot leaks), the remaining
// workers wind down through the shared stop flag, and the first panic
// surfaces as ForEach's error. Callers that cannot propagate an error may
// re-panic it in their own goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// The fault-injection point and panic recovery wrap every iteration on
	// both the serial and parallel paths, so the contract is uniform.
	run := func(i int) error {
		return Protect(i, func(i int) error {
			faults.Inject(faults.PoolWorker)
			return fn(i)
		})
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64 = -1
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		Go(func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}, nil) // run recovers per iteration; the worker loop itself cannot panic
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
