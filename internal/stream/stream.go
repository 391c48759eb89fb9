// Package stream is throughputlab's concurrency substrate: an indexed
// fan-out (For) that every worker pool runs on — world generation,
// collection scheduling and execution, MAP-IT's trace pass and the
// experiment sweep — a bounded sequence-numbered reorder buffer that
// turns out-of-order parallel work back into a deterministic ordered
// stream (the columnar corpus codec's encode and decode workers), and a
// named-stage fan-out that runs independent consumers of the chunk
// stream on their own goroutines behind bounded queues (the streamed
// report passes).
//
// All three exist so that parallelism never shows in results: For
// callers write only index-owned slots, Reorder releases strictly by
// sequence number, and every Pipeline stage observes the identical
// ordered stream. Backpressure is structural — a producer running too
// far ahead of the release cursor blocks in Put, and a producer ahead
// of a slow stage blocks in Send — so memory stays bounded by
// (window + stage queue depth) items no matter how fast the fast side
// runs.
package stream

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"throughputlab/internal/obs"
)

// For calls fn(worker, i) once for every i in [0, n) and returns once
// every call has returned. When min(workers, n) > 1, that many
// goroutines claim indices off a shared cursor; worker is the claiming
// goroutine's index, below min(workers, n), and each worker index runs
// on one goroutine at a time, so callers may keep per-worker scratch
// indexed by it. Otherwise it runs inline on the caller's goroutine,
// in index order, as worker 0: the serial reference path.
//
// Results are worker-count invariant when fn(_, i) writes only state
// owned by index i (or by worker, for scratch) and callers merge in
// index order. When sp is non-nil and the loop fans out, each goroutine
// records a child span "worker.NN" under sp.
func For(n, workers int, sp *obs.Span, fn func(worker, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ws := sp.Child(fmt.Sprintf("worker.%02d", w))
			defer ws.End()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Reorder is a bounded sequence-numbered reorder buffer. Producers Put
// items tagged with their sequence number (0-based, dense); a single
// consumer calls Next and receives the items in exact sequence order.
// A Put whose sequence number is window or more ahead of the next
// undelivered sequence blocks until the consumer catches up — the
// backpressure bound that keeps at most window items resident.
type Reorder[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond

	window int
	next   int // next sequence Next will release
	buf    map[int]T

	closed bool
	err    error
}

// NewReorder returns a reorder buffer releasing from sequence 0 with
// the given window (minimum 1).
func NewReorder[T any](window int) *Reorder[T] {
	if window < 1 {
		window = 1
	}
	r := &Reorder[T]{window: window, buf: make(map[int]T, window)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Put hands over item seq. It blocks while seq is outside the release
// window (seq >= next+window) and returns false once the buffer has
// been failed or closed — the producer's signal to stop working.
// Sequence numbers must be unique; each is delivered exactly once.
func (r *Reorder[T]) Put(seq int, v T) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for seq >= r.next+r.window && r.err == nil && !r.closed {
		r.cond.Wait()
	}
	if r.err != nil || r.closed {
		return false
	}
	r.buf[seq] = v
	if seq == r.next {
		r.cond.Broadcast()
	}
	return true
}

// Next blocks until item `next` is available and returns it, advancing
// the cursor. ok is false once the buffer is closed (or failed) and
// every item put before that has been drained.
func (r *Reorder[T]) Next() (v T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if item, have := r.buf[r.next]; have {
			delete(r.buf, r.next)
			r.next++
			r.cond.Broadcast()
			return item, true
		}
		if r.closed || r.err != nil {
			return v, false
		}
		r.cond.Wait()
	}
}

// Close marks the stream complete: Next drains what was already put at
// the cursor and then reports done. Producers must have finished.
func (r *Reorder[T]) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Fail aborts the stream with err (the first Fail wins): blocked
// producers and the consumer wake immediately and see a dead buffer.
func (r *Reorder[T]) Fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Err returns the failure recorded by Fail, if any.
func (r *Reorder[T]) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stage is one named consumer of an ordered item stream.
type Stage[T any] struct {
	Name string
	// Fn consumes one item. It runs on the stage's own goroutine,
	// strictly in stream order; an error stops the stage and fails the
	// whole pipeline at the next Send/Close.
	Fn func(T) error
}

// stageState is the runtime of one Stage: its bounded queue, its obs
// handles, and the first error it hit.
type stageState[T any] struct {
	name string
	fn   func(T) error
	ch   chan T

	span  *obs.Span
	depth *obs.Gauge
	items *obs.Counter
	busy  *obs.Counter // cumulative processing time, microseconds
	bus   *obs.Bus     // progress events (nil when no bus is attached)

	err error
}

// stageEventEvery is the per-stage progress event cadence: one
// "pipeline.stage" event per this many processed items (plus one final
// event when the stage drains), so a million-item stream does not
// flood the bounded bus and crowd out chunk/fault events.
const stageEventEvery = 100

// Pipeline broadcasts an ordered item stream to every stage, each on
// its own goroutine behind a bounded queue, so consumers overlap with
// production and with each other; wall time approaches the slowest
// stage instead of the sum of stages. Send blocks when a stage's queue
// is full — the same structural backpressure as Reorder — so resident
// items are bounded by depth per stage.
//
// Determinism: every stage receives the identical stream in the
// identical order; only the interleaving across stages varies, which
// is why stages must not share mutable state unless independently
// synchronized.
type Pipeline[T any] struct {
	stages []*stageState[T]
	wg     sync.WaitGroup
	span   *obs.Span

	mu     sync.Mutex
	failed error
}

// NewPipeline starts one goroutine per stage, each consuming from a
// bounded queue of the given depth (minimum 1). When reg is non-nil
// the pipeline records, per stage: a child span under "pipeline.<name>"
// covering the stage's lifetime, a queue-depth gauge
// pipeline.<name>.<stage>.depth (with .depth_max high-water mark), an
// item counter, and cumulative busy time in microseconds — the numbers
// that show where the pipeline stalls.
func NewPipeline[T any](name string, depth int, reg *obs.Registry, stages ...Stage[T]) *Pipeline[T] {
	if depth < 1 {
		depth = 1
	}
	p := &Pipeline[T]{span: reg.Span("pipeline." + name)}
	for _, st := range stages {
		ss := &stageState[T]{name: st.Name, fn: st.Fn, ch: make(chan T, depth), bus: reg.Events()}
		if reg != nil {
			prefix := fmt.Sprintf("pipeline.%s.%s.", name, st.Name)
			ss.span = p.span.Child(st.Name)
			ss.depth = reg.Gauge(prefix + "depth")
			ss.items = reg.Counter(prefix + "items")
			ss.busy = reg.Counter(prefix + "busy_us")
		}
		p.stages = append(p.stages, ss)
		p.wg.Add(1)
		go p.run(ss, reg, name)
	}
	return p
}

// run drains one stage's queue until it closes or the stage errors.
func (p *Pipeline[T]) run(ss *stageState[T], reg *obs.Registry, name string) {
	defer p.wg.Done()
	defer ss.span.End()
	// Label the stage goroutine so profiles scraped off the telemetry
	// endpoint attribute CPU to pipeline stages by name.
	defer pprof.SetGoroutineLabels(context.Background())
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("tputlab.pipeline", name, "tputlab.stage", ss.name)))
	var depthMax, processed int64
	defer func() {
		if processed > 0 {
			ss.bus.Publish("pipeline.stage", name+"."+ss.name, -1, processed)
		}
	}()
	for v := range ss.ch {
		if ss.depth != nil {
			d := int64(len(ss.ch)) + 1
			ss.depth.Set(d)
			if d > depthMax {
				depthMax = d
				reg.Gauge(fmt.Sprintf("pipeline.%s.%s.depth_max", name, ss.name)).Set(d)
			}
		}
		if ss.err != nil {
			continue // already failed: drain so Send never wedges
		}
		start := time.Now()
		err := ss.fn(v)
		if ss.busy != nil {
			ss.busy.Add(uint64(time.Since(start).Microseconds()))
			ss.items.Inc()
			ss.depth.Set(int64(len(ss.ch)))
		}
		processed++
		if processed%stageEventEvery == 0 {
			ss.bus.Publish("pipeline.stage", name+"."+ss.name, -1, processed)
		}
		if err != nil {
			ss.err = fmt.Errorf("stream: stage %s: %w", ss.name, err)
			p.mu.Lock()
			if p.failed == nil {
				p.failed = ss.err
			}
			p.mu.Unlock()
		}
	}
}

// Send broadcasts one item to every stage, blocking on full queues. It
// returns the first stage error once one has been observed; items sent
// after a failure are drained, not processed.
func (p *Pipeline[T]) Send(v T) error {
	p.mu.Lock()
	err := p.failed
	p.mu.Unlock()
	if err != nil {
		return err
	}
	for _, ss := range p.stages {
		ss.ch <- v
	}
	return nil
}

// Close ends the stream: stage queues are closed, every stage drains,
// and the first stage error (if any) is returned.
func (p *Pipeline[T]) Close() error {
	for _, ss := range p.stages {
		close(ss.ch)
	}
	p.wg.Wait()
	p.span.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}
