package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome is what one send returned.
type Outcome struct {
	Status int
	Bytes  int
	Err    string
	// Bad marks a response the run's inline checks rejected (a body
	// that differs from an earlier body for the same key, or a status
	// outside the allowed surface).
	Bad bool
}

// OK reports whether the request succeeded.
func (o Outcome) OK() bool { return o.Err == "" && o.Status == 200 && !o.Bad }

// Timing is one scheduled request's fate. Times are offsets from the
// phase start; Sent < 0 means the request was never sent.
type Timing struct {
	Index    int
	Endpoint string
	Due      time.Duration
	Sent     time.Duration
	Done     time.Duration
	Outcome
}

// Latency is measured from the due time, not the send time: a stall
// that delays later sends is charged to those requests too (no
// coordinated omission).
func (t Timing) Latency() time.Duration { return t.Done - t.Due }

// Lag is how late the generator sent the request.
func (t Timing) Lag() time.Duration { return t.Sent - t.Due }

// runOpenLoop sends reqs on their due offsets from start, over at most
// workers concurrent sends, in schedule order. A worker takes the next
// request only when it is free, so when every worker is busy the due
// requests queue in the generator and their latency keeps growing —
// the open loop never slows its schedule to the system's pace.
// Requests not sent by cutoff (measured from start), or once ctx is
// done, are left unsent.
func runOpenLoop(ctx context.Context, start time.Time, dues []time.Duration, endpoints []string, workers int,
	cutoff time.Duration, send func(i int) Outcome) []Timing {
	out := make([]Timing, len(dues))
	for i := range out {
		out[i] = Timing{Index: i, Endpoint: endpoints[i], Due: dues[i], Sent: -1}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				if d := time.Until(start.Add(dues[i])); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				sent := time.Since(start)
				if sent > cutoff || ctx.Err() != nil {
					out[i].Outcome = Outcome{Err: "never sent"}
					continue
				}
				o := send(i)
				out[i].Sent, out[i].Done, out[i].Outcome = sent, time.Since(start), o
			}
		}()
	}
	wg.Wait()
	return out
}
