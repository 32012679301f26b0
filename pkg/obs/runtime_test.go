package obs

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func TestRuntimeCollectorPublishesGauges(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	runtime.GC() // guarantee at least one GC cycle so pause gauges are live
	c.Collect()

	// The family names are pinned by pkg/serve's metrics inventory golden.
	if c.goroutines.Value() < 1 {
		t.Errorf("goroutines gauge = %v, want >= 1", c.goroutines.Value())
	}
	if c.heapAlloc.Value() <= 0 {
		t.Errorf("heap alloc gauge = %v, want > 0", c.heapAlloc.Value())
	}
	if c.gcRuns.Value() < 1 {
		t.Errorf("gc runs gauge = %v, want >= 1 after runtime.GC()", c.gcRuns.Value())
	}
}

func TestRuntimeCollectorRunStopsOnCancel(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		c.Run(ctx, time.Millisecond)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not stop after cancel")
	}
	if c.goroutines.Value() < 1 {
		t.Error("Run never collected")
	}
}
