package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"throughputlab/internal/obs"
)

// TestOrdered checks the ordered map's contract at every worker count:
// results come back in Put order although fn finishes in random order,
// the inline path has run fn by the time Put returns, Len counts what
// is not yet taken, and Close with results still untaken returns with
// no call of fn still running and leaves no goroutine behind. Run under -race in CI.
func TestOrdered(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			const n = 200
			window := 2 * max(workers, 1)
			var ran atomic.Int64
			o := NewOrdered(workers, func(i int) int {
				if workers > 1 {
					time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
				}
				ran.Add(1)
				return i * 10
			})
			taken := 0
			for i := 0; i < n; i++ {
				o.Put(i)
				if workers <= 1 && ran.Load() != int64(i+1) {
					t.Fatalf("Put(%d) returned before fn ran inline", i)
				}
				for o.Len() >= window || i == n-1 && o.Len() > 0 {
					if got := o.Next(); got != taken*10 {
						t.Fatalf("result %d = %d, want %d: out of Put order", taken, got, taken*10)
					}
					taken++
				}
				if o.Len() != i+1-taken {
					t.Fatalf("Len = %d after %d puts and %d takes", o.Len(), i+1, taken)
				}
			}
			if taken != n {
				t.Fatalf("took %d results, want %d", taken, n)
			}
			o.Close()

			baseline := runtime.NumGoroutine()
			var active atomic.Int64
			o = NewOrdered(workers, func(i int) int {
				active.Add(1)
				defer active.Add(-1)
				time.Sleep(time.Millisecond)
				return i
			})
			for i := 0; i < window; i++ {
				o.Put(i)
			}
			o.Close() // results untaken
			if got := active.Load(); got != 0 {
				t.Fatalf("%d calls of fn still running after Close", got)
			}
			o.Close() // idempotent
			for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > baseline {
				t.Fatalf("%d goroutines after Close, %d before NewOrdered", got, baseline)
			}
		})
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
