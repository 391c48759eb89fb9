package obs

import (
	"context"
	"time"
)

// The phase-span tracer. A Span measures the wall time of one pipeline
// phase; spans form a tree that mirrors the run: world generation →
// corpus collection → shared inference → per-experiment runs.
//
// Every span opens from an explicit parent, so the tree follows the
// call graph, not goroutine scheduling: Registry.Span opens a root and
// Span.Child a child. A parent reaches a callee through its
// context.Context (Start, WithSpan). The registry's span mutex guards
// the tree; the nil *Span is a no-op, so disabled tracing costs one
// branch.

// Span is one timed phase, closed with End. The nil span is a no-op.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span

	r *Registry // the owning registry; its spanMu guards the fields above
}

// Span opens a root span. On a nil registry it returns nil.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{name: name, start: time.Now(), r: r}
	r.spanMu.Lock()
	r.roots = append(r.roots, s)
	r.spanMu.Unlock()
	return s
}

// Child opens a span as a child of s. It is safe to call from several
// goroutines under one parent. On a nil span it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), r: s.r}
	s.r.spanMu.Lock()
	s.children = append(s.children, c)
	s.r.spanMu.Unlock()
	return c
}

// spanKey is the context key under which a span travels.
type spanKey struct{}

// WithSpan returns ctx carrying s as the parent for the spans Start
// opens under it. On a nil span it returns ctx.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// Start opens a span on r: a child of the span ctx carries when that
// span belongs to r, a root otherwise. It returns the span and ctx
// carrying it, so the callee's own spans nest under it. On a nil
// registry it returns nil and ctx.
func Start(ctx context.Context, r *Registry, name string) (*Span, context.Context) {
	if r == nil {
		return nil, ctx
	}
	var s *Span
	if p, _ := ctx.Value(spanKey{}).(*Span); p != nil && p.r == r {
		s = p.Child(name)
	} else {
		s = r.Span(name)
	}
	return s, WithSpan(ctx, s)
}

// End closes the span, recording its wall time. End on a nil or
// already-ended span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.r.spanMu.Lock()
	defer s.r.spanMu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
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
	s.r.spanMu.Lock()
	defer s.r.spanMu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}
