package obs_test

import (
	"context"
	"strings"
	"testing"

	"throughputlab/internal/obs"
	"throughputlab/internal/stream"
)

// shape renders a span subtree as name(child,child,…), children in the
// order they opened.
func shape(d obs.SpanDump) string {
	if len(d.Children) == 0 {
		return d.Name
	}
	parts := make([]string, len(d.Children))
	for i, c := range d.Children {
		parts[i] = shape(c)
	}
	return d.Name + "(" + strings.Join(parts, ",") + ")"
}

// roots renders a registry's span forest with shape.
func roots(r *obs.Registry) string {
	d := r.Snapshot()
	parts := make([]string, len(d.Spans))
	for i, s := range d.Spans {
		parts[i] = shape(s)
	}
	return strings.Join(parts, " ")
}

// TestSpanNesting asserts that Start nests under the span its context
// carries and nowhere else: a context without one of the registry's
// spans gives a root, a span still open elsewhere adopts nothing, and
// WithSpan hands an existing span down.
func TestSpanNesting(t *testing.T) {
	r := obs.NewRegistry()
	bg := context.Background()
	outer, outerCtx := obs.Start(bg, r, "outer")
	inner, innerCtx := obs.Start(outerCtx, r, "inner")
	leaf, _ := obs.Start(innerCtx, r, "leaf")
	// inner is still open, but outerCtx carries outer.
	sibling, _ := obs.Start(outerCtx, r, "sibling")
	other, _ := obs.Start(bg, r, "other")
	handed, _ := obs.Start(obs.WithSpan(bg, inner), r, "handed")
	for _, s := range []*obs.Span{handed, other, sibling, leaf, inner, outer} {
		s.End()
	}
	// Registry.Span opens a root even while spans are open.
	open := r.Span("open")
	r.Span("after").End()
	open.End()

	want := "outer(inner(leaf,handed),sibling) other open after"
	if got := roots(r); got != want {
		t.Errorf("span tree = %s, want %s", got, want)
	}

	if s, ctx := obs.Start(outerCtx, nil, "x"); s != nil || ctx != outerCtx {
		t.Errorf("Start on a nil registry = (%v, %v), want (nil, the same context)", s, ctx)
	}
	if ctx := obs.WithSpan(bg, nil); ctx != bg {
		t.Error("WithSpan(nil) changed the context")
	}
	var none *obs.Span
	if none.Child("c") != nil {
		t.Error("Child of the nil span is not nil")
	}
}

// TestSpanStartOtherRegistry asserts that a context span from another
// registry is not a parent: Start opens a root of its own registry and
// the other registry's tree does not change.
func TestSpanStartOtherRegistry(t *testing.T) {
	r1, r2 := obs.NewRegistry(), obs.NewRegistry()
	p, ctx := obs.Start(context.Background(), r1, "p")
	s, sctx := obs.Start(ctx, r2, "s")
	c, _ := obs.Start(sctx, r2, "c")
	c.End()
	s.End()
	p.End()
	if got := roots(r1); got != "p" {
		t.Errorf("r1 tree = %s, want p", got)
	}
	if got := roots(r2); got != "s(c)" {
		t.Errorf("r2 tree = %s, want s(c)", got)
	}
}

// TestSpanEndOutOfOrder asserts that End touches only its own span: a
// parent ended before its child keeps the child, the child records its
// own time, a later Start under the ended parent still nests there,
// and a second End changes nothing.
func TestSpanEndOutOfOrder(t *testing.T) {
	r := obs.NewRegistry()
	parent, ctx := obs.Start(context.Background(), r, "parent")
	child, _ := obs.Start(ctx, r, "child")
	parent.End()
	late, _ := obs.Start(ctx, r, "late")
	late.End()
	child.End()
	if got := roots(r); got != "parent(child,late)" {
		t.Errorf("span tree = %s, want parent(child,late)", got)
	}
	for _, s := range []*obs.Span{parent, child} {
		d := s.Duration()
		if d <= 0 {
			t.Errorf("%s duration = %v, want > 0", s.Name(), d)
		}
		s.End() // double End is a no-op
		if s.Duration() != d {
			t.Errorf("%s: a second End changed the duration", s.Name())
		}
	}
}

// TestSpanStartConcurrent opens spans from stream.For workers under one
// context parent, each with a nested child through the context Start
// returned. Every span lands under its own parent whatever the
// interleaving. Run under -race in CI.
func TestSpanStartConcurrent(t *testing.T) {
	r := obs.NewRegistry()
	parent, ctx := obs.Start(context.Background(), r, "parent")
	const items, workers = 64, 8
	stream.For(items, workers, parent, func(_, _ int) {
		sp, sctx := obs.Start(ctx, r, "item")
		leaf, _ := obs.Start(sctx, r, "leaf")
		leaf.End()
		sp.End()
	})
	parent.End()

	d := r.Snapshot()
	if len(d.Spans) != 1 {
		t.Fatalf("%d roots, want 1: %s", len(d.Spans), roots(r))
	}
	var itemSpans, workerSpans int
	for _, c := range d.Spans[0].Children {
		switch {
		case c.Name == "item":
			itemSpans++
			if shape(c) != "item(leaf)" {
				t.Errorf("item subtree = %s, want item(leaf)", shape(c))
			}
		case strings.HasPrefix(c.Name, "worker."):
			workerSpans++
			if len(c.Children) != 0 {
				t.Errorf("worker subtree = %s, want no children", shape(c))
			}
		default:
			t.Errorf("unexpected child %s", shape(c))
		}
	}
	if itemSpans != items || workerSpans != workers {
		t.Errorf("parent has %d item and %d worker children, want %d and %d",
			itemSpans, workerSpans, items, workers)
	}
}
