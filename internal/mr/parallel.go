package mr

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// runTasks executes n indexed tasks on up to w concurrent workers. A panic
// inside a task is recovered and becomes that task's error. Every task runs
// to completion regardless of other tasks' failures, so per-task volume
// counters are fully populated (and therefore deterministic) even on a
// failed attempt; the error of the lowest-indexed failed task is returned,
// which keeps the reported failure independent of goroutine scheduling.
func runTasks(w, n int, task func(i int) error) error {
	if n == 0 {
		return nil
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := runTask(task, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	next := int64(-1)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				errs[i] = runTask(task, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask invokes one task, converting a panic in user code into an error.
func runTask(task func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	return task(i)
}

// panicError is the error a recovered panic value becomes. An error value
// is wrapped, so errors.Is still finds what user code panicked with (a
// UDF's udf.ErrContract, say) once the job fails; anything else is
// formatted.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%w", err)
	}
	return fmt.Errorf("%v", r)
}

// partitionOf assigns a shuffle key to one of r reduce partitions.
func partitionOf(key string, r int) int {
	if r <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(r))
}
