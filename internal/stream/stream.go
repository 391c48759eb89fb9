// Package stream is throughputlab's concurrency substrate: an indexed
// fan-out (For) that every worker pool runs on — world generation,
// collection scheduling and execution, MAP-IT's trace pass and the
// experiment sweep — an ordered map (Ordered) that runs a function on
// workers and hands the results back in input order (the columnar
// corpus codec's chunk encode and frame decode), and a named-stage
// fan-out that runs independent consumers of the chunk stream on their
// own goroutines behind bounded queues (the streamed report passes).
//
// All three exist so that parallelism never shows in results: For
// callers write only index-owned slots, Ordered returns results strictly
// in Put order, and every Pipeline stage observes the identical ordered
// stream. For and Ordered run inline on the caller's goroutine at one
// worker or fewer, so the serial path is the same code. Memory stays
// bounded no matter how fast the fast side runs: an Ordered caller
// takes results before it puts more, and a producer ahead of a slow
// stage blocks in Send, so at most (window + stage queue depth) items
// are resident.
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

// Ordered applies fn to every input Put and hands the results back
// from Next in Put order. One goroutine owns it and both puts and
// takes; it bounds how much is in flight by taking results before it
// puts more (Len counts inputs put and not yet taken). With workers > 1
// fn runs on that many goroutines; otherwise Put runs fn inline on the
// caller's goroutine, so the serial path is the same code.
type Ordered[In, Out any] struct {
	fn      func(In) Out
	jobs    chan orderedJob[In, Out] // nil when fn runs inline
	pending []chan Out               // one result slot per untaken input, oldest first
	wg      sync.WaitGroup
}

type orderedJob[In, Out any] struct {
	in  In
	out chan<- Out
}

// NewOrdered returns an Ordered running fn on workers goroutines, or
// inline when workers ≤ 1.
func NewOrdered[In, Out any](workers int, fn func(In) Out) *Ordered[In, Out] {
	o := &Ordered[In, Out]{fn: fn}
	if workers <= 1 {
		return o
	}
	o.jobs = make(chan orderedJob[In, Out])
	o.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer o.wg.Done()
			for j := range o.jobs {
				j.out <- fn(j.in)
			}
		}()
	}
	return o
}

// Put hands in to fn. Inline, fn has returned by the time Put does.
func (o *Ordered[In, Out]) Put(in In) {
	out := make(chan Out, 1)
	o.pending = append(o.pending, out)
	if o.jobs == nil {
		out <- o.fn(in)
		return
	}
	o.jobs <- orderedJob[In, Out]{in: in, out: out}
}

// Next waits for and returns the result of the oldest input not yet
// taken. Len must be positive.
func (o *Ordered[In, Out]) Next() Out {
	out := o.pending[0]
	o.pending = o.pending[1:]
	return <-out
}

// Len is the number of inputs put whose results have not been taken.
func (o *Ordered[In, Out]) Len() int { return len(o.pending) }

// Close stops the workers once the inputs already put have run, and
// drops every result not yet taken. It is idempotent.
func (o *Ordered[In, Out]) Close() {
	if o.jobs != nil {
		close(o.jobs)
		o.wg.Wait()
		o.jobs = nil
	}
	o.pending = nil
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
// is full — structural backpressure — so resident items are bounded by
// depth per stage.
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
