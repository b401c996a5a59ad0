package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one timed operation of the load generator.
type sample struct {
	at     time.Time     // due time (open loop) or start (closed loop)
	lat    time.Duration // from at to completion
	traced bool
}

// loadResult collects a load phase's samples by whether they ran traced.
type loadResult struct {
	lat  [2]dist // [untraced, traced] latency, ns
	at   [2]dist // when each of those samples was due, ns since the clock started
	late dist    // open loop: how late each send left, ns
	sent int64
	done int64 // operations that succeeded
}

func (r *loadResult) add(b *bench, s sample) {
	i := 0
	if s.traced {
		i = 1
	}
	r.lat[i] = append(r.lat[i], durNS(s.lat))
	r.at[i] = append(r.at[i], durNS(s.at.Sub(b.clock)))
}

// within returns the untraced latencies of the samples due in [from, to).
func (r *loadResult) within(from, to time.Duration) dist {
	var d dist
	for k, at := range r.at[0] {
		if at >= durNS(from) && at < durNS(to) {
			d = append(d, r.lat[0][k])
		}
	}
	return d
}

func (r *loadResult) merge(o *loadResult) {
	for i := range r.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
		r.at[i] = append(r.at[i], o.at[i]...)
	}
	r.late = append(r.late, o.late...)
	r.sent += o.sent
	r.done += o.done
}

// slotFunc issues the operation of one slot: i is the slot number and
// traced whether it falls in a traced slice. It reports whether the
// operation succeeded.
type slotFunc func(worker, i int, traced bool) bool

// openLoop sends on a fixed timetable: slot i is due at start + i/rate.
// The workers claim slots in order and wait for each one's due time; a
// worker that is behind sends at once. Each operation is timed from its
// due time, so a stall in the daemon or in the generator counts against
// every operation it delays, and the generator's lateness — send time
// minus due time — is reported with the samples. Slots stop at the
// first one due at or after the end (or once stop is closed).
func openLoop(b *bench, start, end time.Time, rate float64, workers int, stop <-chan struct{}, op slotFunc) *loadResult {
	var next atomic.Int64
	parts := make([]loadResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &parts[w]
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				if !due.Before(end) {
					return
				}
				sleepUntil(due)
				select {
				case <-stop:
					return
				default:
				}
				r.late = append(r.late, durNS(time.Since(due)))
				r.sent++
				traced := b.tracedAt(due)
				if op(w, i, traced) {
					r.done++
					r.add(b, sample{at: due, lat: time.Since(due), traced: traced})
				}
			}
		}(w)
	}
	wg.Wait()
	total := &loadResult{}
	for w := range parts {
		total.merge(&parts[w])
	}
	return total
}

// sleepUntil blocks the goroutine's thread in nanosleep until t. The
// runtime's own timers wake idle threads at millisecond granularity,
// which would make the generator, not the daemon, set the latency of
// every open-loop request; the kernel's timer is precise to tens of
// microseconds and costs no CPU while it waits.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}

// closedLoop runs workers that each issue their next operation as soon
// as the previous one completes, until end. Each operation is timed
// from its start.
func closedLoop(b *bench, end time.Time, workers int, op slotFunc) *loadResult {
	var next atomic.Int64
	parts := make([]loadResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &parts[w]
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				i := int(next.Add(1) - 1)
				traced := b.tracedAt(t0)
				r.sent++
				if op(w, i, traced) {
					r.done++
					r.add(b, sample{at: t0, lat: time.Since(t0), traced: traced})
				}
			}
		}(w)
	}
	wg.Wait()
	total := &loadResult{}
	for w := range parts {
		total.merge(&parts[w])
	}
	return total
}
