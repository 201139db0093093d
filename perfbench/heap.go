package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// heapSampler records the largest live heap over every garbage
// collection cycle: a sentinel object's finalizer runs once per cycle,
// reads /gc/heap/live:bytes (the live heap that cycle marked) and
// re-arms itself. Sampling every cycle, rather than the last one before
// an op ends, catches cycles that ran at an op's largest working set.
type heapSampler struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type heapSentinel struct{ h *heapSampler }

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&heapSentinel{h}, func(s *heapSentinel) {
		if s.h.stopped.Load() {
			return
		}
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		for live := sample[0].Value.Uint64(); ; {
			old := s.h.peak.Load()
			if live <= old || s.h.peak.CompareAndSwap(old, live) {
				break
			}
		}
		s.h.arm()
	})
}

// take returns the largest live heap since the previous take.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// stop ends the sampling at the next cycle.
func (h *heapSampler) stop() { h.stopped.Store(true) }
