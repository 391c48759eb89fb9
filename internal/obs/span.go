package obs

import (
	"sync"
	"time"
)

// The phase-span tracer. A Span measures the wall time of one pipeline
// phase; spans form a tree that mirrors the run: world generation →
// population build → corpus collection → resolver warm-up →
// per-experiment runs.
//
// Two nesting modes:
//
//   - Registry.Span(name) opens a sequential span nested under the
//     innermost still-open sequential span. This fits orchestration code
//     (Generate, CollectStreamCtx, NewEnvCtx, the CLI) where phases start
//     and end on one goroutine in stack order.
//   - Span.Child(name) opens an explicit child of a given parent and
//     does NOT join the sequential stack. Concurrent sections
//     (stream.For's workers, the RunParallelCtx sweep) use it so
//     sibling spans from different goroutines attach to the right
//     parent without interleaving the stack.
//
// All tree mutation is guarded by the registry's span mutex; reading
// the tree (Snapshot, WriteTrace) is meant for after the traced work has
// completed. The nil *Span is a no-op, so disabled tracing costs one
// branch.

// Span is one timed phase. Create via Registry.Span or Span.Child;
// close with End. The nil span is a valid no-op.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span

	mu *sync.Mutex // the owning registry's spanMu
	r  *Registry
}

// Span opens a sequential phase span nested under the innermost open
// sequential span (a root span when none is open). On a nil registry it
// returns nil.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{name: name, start: time.Now(), mu: &r.spanMu, r: r}
	r.spanMu.Lock()
	if n := len(r.stack); n > 0 {
		parent := r.stack[n-1]
		parent.children = append(parent.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.stack = append(r.stack, s)
	r.spanMu.Unlock()
	return s
}

// Child opens a span as an explicit child of s, without touching the
// sequential stack. Use it from worker goroutines so concurrent sibling
// spans attach under one parent. On a nil span it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), mu: s.mu, r: s.r}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, recording its wall time. Sequential spans are
// popped from the registry stack together with any still-open spans
// opened after them (a missing inner End cannot wedge the tracer). End
// on a nil or already-ended span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if s.r != nil {
		for i := len(s.r.stack) - 1; i >= 0; i-- {
			if s.r.stack[i] == s {
				s.r.stack = s.r.stack[:i]
				break
			}
		}
	}
}

// Name returns the span's name ("" on the nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's recorded wall time; for a span that has
// not ended it returns the time elapsed so far (0 on the nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}
