// Package goroutine is the goroutine-discipline fixture (classified
// DeterminismCritical in FixtureConfig). The positives write shared
// captured state from concurrent function literals — a plain counter, a
// shared append, a map insert from a worker-pool closure — and select
// over two ready channels into ordered output. The negatives are the
// sanctioned shapes: per-slot slice writes, pointers to your own element,
// lock-protected sections, and selects that only dispatch.
package goroutine

import "sync"

// sharedCounter increments a captured int from a goroutine: lost updates
// on a real race, scheduler-ordered even when it happens to work.
func sharedCounter() int {
	total := 0
	done := make(chan struct{})
	go func() {
		total++ // want goroutine-discipline "total"
		close(done)
	}()
	<-done
	return total
}

// sharedAppend grows one slice from many goroutines: element order is the
// scheduler's, and append itself races on the header.
func sharedAppend(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for _, it := range items {
		it := it
		wg.Add(1)
		go func() {
			defer wg.Done()
			out = append(out, it*it) // want goroutine-discipline "out"
		}()
	}
	wg.Wait()
	return out
}

// runWorkers stands in for the parallel runners (sched.ParallelFor,
// sched.RunLanes): the callee name is what marks its literal concurrent.
func runWorkers(n int, f func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// sharedMap inserts into a captured map from worker closures: concurrent
// map writes fault at runtime, and the insert order is scheduler order.
func sharedMap(keys []string) map[string]int {
	m := make(map[string]int)
	runWorkers(len(keys), func(i int) {
		m[keys[i]] = i // want goroutine-discipline "m"
	})
	return m
}

// mergeFirstCome drains whichever channel is ready first: the result
// order is a coin flip the runtime flips on purpose.
func mergeFirstCome(a, b <-chan int) []int {
	var out []int
	for i := 0; i < 2; i++ {
		select { // want goroutine-discipline "select over 2 channels"
		case v := <-a:
			out = append(out, v)
		case v := <-b:
			out = append(out, v)
		}
	}
	return out
}

// perSlot gives every goroutine its own index: the disjoint-partition
// idiom the parallel backends use, no finding.
func perSlot(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		i, it := i, it
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = it * it
		}()
	}
	wg.Wait()
	return out
}

// ownElement takes a pointer to its own slot and writes through the
// local: same discipline as perSlot, one indirection later.
func ownElement(counters []int64, w int, done chan<- struct{}) {
	go func() {
		c := &counters[w]
		*c = *c + 1
		done <- struct{}{}
	}()
}

// locked serializes the shared write under a mutex: assumed disciplined.
func locked() int {
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total++
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// waitEither dispatches on whichever arrives first but emits nothing
// ordered: selects that only route control flow are fine.
func waitEither(done <-chan struct{}, errc <-chan error) error {
	select {
	case <-done:
		return nil
	case err := <-errc:
		return err
	}
}
