package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"throughputlab/internal/obs"
)

// TestReorderOutOfOrderSingleProducer feeds sequences within the
// window in scrambled order and checks release order.
func TestReorderOutOfOrderSingleProducer(t *testing.T) {
	r := NewReorder[int](4)
	for _, seq := range []int{3, 1, 2, 0} {
		if !r.Put(seq, seq*10) {
			t.Fatalf("Put(%d) refused", seq)
		}
	}
	r.Close()
	for want := 0; want < 4; want++ {
		v, ok := r.Next()
		if !ok || v != want*10 {
			t.Fatalf("Next = %d,%v at position %d, want %d", v, ok, want, want*10)
		}
	}
}

// TestReorderOutOfOrder is the reorder buffer's core contract under
// the production shape: workers claim dense increasing sequence
// numbers from a shared counter (exactly how chunk producers claim
// chunk indices) but complete them in scheduler-dependent order; the
// consumer must still observe exact sequence order.
func TestReorderOutOfOrder(t *testing.T) {
	const n = 500
	const workers = 4
	r := NewReorder[int](workers) // window == workers: progress guaranteed
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				seq := int(next.Add(1)) - 1
				if seq >= n {
					return
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				if !r.Put(seq, seq*10) {
					t.Errorf("Put(%d) reported dead buffer", seq)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); r.Close(); close(done) }()
	for want := 0; want < n; want++ {
		v, ok := r.Next()
		if !ok {
			t.Fatalf("Next reported done at %d, want %d items", want, n)
		}
		if v != want*10 {
			t.Fatalf("Next returned %d at position %d, want %d", v, want, want*10)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("Next after close returned an item")
	}
	<-done
}

// TestReorderWindowBound pins the backpressure bound: a Put window or
// more ahead of the cursor must block until the consumer advances.
func TestReorderWindowBound(t *testing.T) {
	r := NewReorder[string](2)
	if !r.Put(0, "a") || !r.Put(1, "b") {
		t.Fatal("in-window puts refused")
	}
	var unblocked atomic.Bool
	go func() {
		r.Put(2, "c") // seq 2 >= next(0)+window(2): must block
		unblocked.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if unblocked.Load() {
		t.Fatal("Put beyond the window did not block")
	}
	if v, ok := r.Next(); !ok || v != "a" {
		t.Fatalf("Next = %q,%v want a", v, ok)
	}
	for i := 0; i < 200 && !unblocked.Load(); i++ {
		time.Sleep(time.Millisecond)
	}
	if !unblocked.Load() {
		t.Fatal("Put did not unblock after the cursor advanced")
	}
	r.Close()
	if v, ok := r.Next(); !ok || v != "b" {
		t.Fatalf("Next = %q,%v want b", v, ok)
	}
}

// TestReorderFail aborts blocked producers and the consumer.
func TestReorderFail(t *testing.T) {
	r := NewReorder[int](1)
	boom := errors.New("boom")
	if !r.Put(0, 0) {
		t.Fatal("first put refused")
	}
	var putDead atomic.Bool
	go func() {
		if !r.Put(1, 1) { // blocked: out of window
			putDead.Store(true)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	r.Fail(boom)
	for i := 0; i < 200 && !putDead.Load(); i++ {
		time.Sleep(time.Millisecond)
	}
	if !putDead.Load() {
		t.Fatal("blocked Put not released by Fail")
	}
	if err := r.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want boom", err)
	}
	// The failed buffer still drains what reached it before the failure.
	if v, ok := r.Next(); !ok || v != 0 {
		t.Fatalf("Next = %d,%v want buffered item", v, ok)
	}
	if _, ok := r.Next(); ok {
		t.Error("Next returned an item after drain on a failed buffer")
	}
}

// TestPipelineBroadcastOrder checks every stage sees the identical
// stream in identical order, concurrently.
func TestPipelineBroadcastOrder(t *testing.T) {
	const n = 300
	var got [3][]int
	var stages []Stage[int]
	for s := 0; s < 3; s++ {
		s := s
		stages = append(stages, Stage[int]{
			Name: fmt.Sprintf("s%d", s),
			Fn: func(v int) error {
				got[s] = append(got[s], v)
				return nil
			},
		})
	}
	p := NewPipeline("test", 4, nil, stages...)
	for i := 0; i < n; i++ {
		if err := p.Send(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for s := range got {
		if len(got[s]) != n {
			t.Fatalf("stage %d saw %d items, want %d", s, len(got[s]), n)
		}
		for i, v := range got[s] {
			if v != i {
				t.Fatalf("stage %d item %d = %d (out of order)", s, i, v)
			}
		}
	}
}

// TestPipelineStageError propagates the first stage failure to Send
// and Close without wedging the other stages.
func TestPipelineStageError(t *testing.T) {
	boom := errors.New("stage down")
	var other atomic.Int64
	p := NewPipeline("test", 1, nil,
		Stage[int]{Name: "bad", Fn: func(v int) error {
			if v == 3 {
				return boom
			}
			return nil
		}},
		Stage[int]{Name: "good", Fn: func(int) error { other.Add(1); return nil }},
	)
	var sendErr error
	for i := 0; i < 100; i++ {
		if sendErr = p.Send(i); sendErr != nil {
			break
		}
	}
	closeErr := p.Close()
	if sendErr == nil && closeErr == nil {
		t.Fatal("stage error never surfaced")
	}
	for _, err := range []error{sendErr, closeErr} {
		if err != nil && !errors.Is(err, boom) {
			t.Fatalf("unexpected error %v", err)
		}
	}
}

// TestPipelineObs checks the stage telemetry: spans under the pipeline
// span, item counters, and depth gauges.
func TestPipelineObs(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPipeline("pass", 2, reg,
		Stage[int]{Name: "match", Fn: func(int) error { return nil }},
		Stage[int]{Name: "export", Fn: func(int) error { return nil }},
	)
	for i := 0; i < 10; i++ {
		if err := p.Send(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{"match", "export"} {
		if got := reg.Counter("pipeline.pass." + st + ".items").Value(); got != 10 {
			t.Errorf("stage %s items = %d, want 10", st, got)
		}
	}
	d := reg.Snapshot()
	var root *obs.SpanDump
	for i := range d.Spans {
		if d.Spans[i].Name == "pipeline.pass" {
			root = &d.Spans[i]
		}
	}
	if root == nil {
		t.Fatalf("missing pipeline.pass span: %+v", d.Spans)
	}
	names := map[string]bool{}
	for _, c := range root.Children {
		names[c.Name] = true
	}
	if !names["match"] || !names["export"] {
		t.Errorf("pipeline span children = %v, want match+export", names)
	}
}

// TestFor checks the fan-out contract over a grid of sizes and worker
// counts: every index runs exactly once, worker stays below the
// effective worker count and is never held by two goroutines at once,
// the inline path runs in index order, and a span gets one worker.NN
// child per goroutine only when the loop fans out. Run under -race in
// CI.
func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n%d/w%d", n, workers), func(t *testing.T) {
				effective := max(min(workers, n), 1)
				calls := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, effective)
				var order []int // appended to only on the inline path
				var bad atomic.Int32
				reg := obs.NewRegistry()
				sp := reg.Span("for")
				For(n, workers, sp, func(worker, i int) {
					if worker < 0 || worker >= effective || !busy[worker].CompareAndSwap(false, true) {
						bad.Add(1)
						return
					}
					calls[i].Add(1)
					if workers <= 1 {
						order = append(order, i)
					}
					runtime.Gosched() // let another holder of worker show up
					busy[worker].Store(false)
				})
				sp.End()
				if got := bad.Load(); got != 0 {
					t.Fatalf("%d calls had an out-of-range or concurrently held worker index", got)
				}
				for i := range calls {
					if got := calls[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
				if workers <= 1 {
					for k, i := range order {
						if i != k {
							t.Fatalf("inline call %d got index %d: not in index order", k, i)
						}
					}
				}
				wantChildren := 0
				if min(workers, n) > 1 {
					wantChildren = min(workers, n)
				}
				children := reg.Snapshot().Spans[0].Children
				if len(children) != wantChildren {
					t.Fatalf("span has %d children, want %d", len(children), wantChildren)
				}
				seen := map[string]bool{}
				for _, c := range children {
					seen[c.Name] = true
				}
				for w := 0; w < wantChildren; w++ {
					if name := fmt.Sprintf("worker.%02d", w); !seen[name] {
						t.Errorf("missing child span %s in %v", name, seen)
					}
				}
			})
		}
	}
	// A nil span is a valid no-op on both paths.
	var sum atomic.Int64
	For(10, 4, nil, func(_, i int) { sum.Add(int64(i)) })
	For(10, 1, nil, func(_, i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 90 {
		t.Errorf("nil-span sum = %d, want 90", got)
	}
}
