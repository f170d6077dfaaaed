//go:build invariants

package core

import (
	"fmt"

	"gpclust/internal/gpusim"
)

// assertDeviceClean panics when a clustering run returns with device buffers
// still allocated. A buffer leaked on some early-exit path permanently
// shrinks the memory every later batch plan is sized against, so under
// -tags invariants a leak is a hard failure at the point it happened rather
// than a mysterious OOM three runs later. The default build compiles the
// no-op in invariants_off.go and pays nothing.
func assertDeviceClean(dev *gpusim.Device) {
	if err := dev.LeakCheck(); err != nil {
		panic(err)
	}
}

// assertTupleBlocks panics when a pass's per-trial tuple streams, pre-sized
// to block tuples each (presizeTuples), do not end exactly full: a stream
// that grew past its window reallocated, so the one-block sizing no longer
// bounds the pass's tuple memory, and a stream left short means some long
// list emitted no tuple. block < 0 means the streams were not pre-sized.
func assertTupleBlocks(streams [][]tuple, block int) {
	if block < 0 {
		return
	}
	for j, ts := range streams {
		if cap(ts) != block || len(ts) != block {
			panic(fmt.Sprintf("core: trial %d tuple stream holds %d tuples with capacity %d, pre-sized to %d",
				j, len(ts), cap(ts), block))
		}
	}
}
