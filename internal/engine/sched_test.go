package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndCoverage(t *testing.T) {
	out, err := Map(context.Background(), 0, 50, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if out, err := Map(context.Background(), 4, 0, func(int) (int, error) { return 1, nil }); err != nil || len(out) != 0 {
		t.Fatalf("n=0: %v, %v", out, err)
	}
}

func TestMapSingleWorkerIsSequential(t *testing.T) {
	var running, maxRunning atomic.Int32
	_, err := Map(context.Background(), 1, 20, func(i int) (int, error) {
		if r := running.Add(1); r > maxRunning.Load() {
			maxRunning.Store(r)
		}
		defer running.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxRunning.Load() != 1 {
		t.Fatalf("max concurrency %d with workers=1", maxRunning.Load())
	}
}

func TestMapErrorStopsSweep(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	_, err := Map(context.Background(), 2, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "task 3") {
		t.Fatalf("error does not identify the task: %v", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("sweep did not stop early (%d calls)", n)
	}
}

func TestMapHonorsCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	_, err := Map(ctx, 2, 10000, func(i int) (int, error) {
		if calls.Add(1) == 5 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n >= 10000 {
		t.Fatalf("sweep ran to completion despite cancellation (%d calls)", n)
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	// Single worker, deterministic: indices 0 and 1 complete, 2 fails,
	// the rest never run and stay zero.
	out, err := Map(context.Background(), 1, 6, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i + 100, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out[0] != 100 || out[1] != 101 {
		t.Fatalf("completed results lost: %v", out)
	}
	for i := 2; i < 6; i++ {
		if out[i] != 0 {
			t.Fatalf("index %d ran after the failure: %v", i, out)
		}
	}
}

func TestMapCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	_, err := Map(ctx, 2, 100, func(i int) (int, error) {
		calls.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d tasks ran under a context cancelled before the sweep", n)
	}
}
