package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestBusDeliversInOrder asserts the basic contract: published events
// reach every sink, in order, with dense sequence numbers, and Stats
// accounts for them by kind after Close.
func TestBusDeliversInOrder(t *testing.T) {
	r := NewRegistry()
	bus := r.EnableEvents(64)
	if r.Events() != bus {
		t.Fatal("Events did not return the attached bus")
	}
	var got []Event
	bus.AddSink(func(e Event) { got = append(got, e) })
	bus.Publish("collect.chunk", "", 120, 0)
	bus.Publish("fault.retry", "test_abort", -1, 1)
	bus.Publish("campaign.done", "", -1, 1)
	bus.Close()

	if len(got) != 3 {
		t.Fatalf("delivered %d events, want 3: %+v", len(got), got)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if got[0].Kind != "collect.chunk" || got[0].SimMinute != 120 {
		t.Errorf("first event = %+v", got[0])
	}
	if got[1].Name != "test_abort" || got[1].SimMinute != -1 {
		t.Errorf("second event = %+v", got[1])
	}
	st := bus.Stats()
	if st.Published != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.ByKind["collect.chunk"] != 1 || st.ByKind["fault.retry"] != 1 || st.ByKind["campaign.done"] != 1 {
		t.Errorf("by-kind = %+v", st.ByKind)
	}
}

// TestBusOverflowDrops pins the bounded lossy semantics: with the
// consumer wedged, publishes beyond the buffer are counted as dropped,
// never block, and the drops show as sequence gaps in what is
// delivered.
func TestBusOverflowDrops(t *testing.T) {
	r := NewRegistry()
	bus := r.EnableEvents(4)
	block := make(chan struct{})
	var mu sync.Mutex
	var delivered []uint64
	bus.AddSink(func(e Event) {
		<-block
		mu.Lock()
		delivered = append(delivered, e.Seq)
		mu.Unlock()
	})
	// One event is pulled into the wedged sink, four fill the buffer;
	// everything after that must drop without blocking this goroutine.
	for i := 0; i < 50; i++ {
		bus.Publish("collect.chunk", "", i, int64(i))
	}
	close(block)
	bus.Close()

	st := bus.Stats()
	if st.Published+st.Dropped != 50 {
		t.Fatalf("published %d + dropped %d != 50", st.Published, st.Dropped)
	}
	if st.Dropped == 0 {
		t.Fatal("wedged consumer dropped nothing — Publish must have blocked")
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(delivered)) != st.Published {
		t.Errorf("delivered %d events, stats say %d", len(delivered), st.Published)
	}
	// Delivered seqs are strictly increasing; the gaps are the drops.
	for i := 1; i < len(delivered); i++ {
		if delivered[i] <= delivered[i-1] {
			t.Fatalf("seqs not increasing: %v", delivered)
		}
	}
}

// TestBusPublishAfterCloseSafe asserts a late producer cannot panic the
// bus: Publish after Close counts as dropped.
func TestBusPublishAfterCloseSafe(t *testing.T) {
	r := NewRegistry()
	bus := r.EnableEvents(4)
	bus.Close()
	bus.Close() // double Close is a no-op
	bus.Publish("collect.chunk", "", 0, 0)
	if st := bus.Stats(); st.Dropped != 1 || st.Published != 0 {
		t.Errorf("stats after post-close publish = %+v", st)
	}
}

// TestBusFirstEnableWins pins the CAS attachment contract.
func TestBusFirstEnableWins(t *testing.T) {
	r := NewRegistry()
	a := r.EnableEvents(8)
	b := r.EnableEvents(16)
	if a != b {
		t.Error("second EnableEvents returned a different bus")
	}
	a.Close()
}

// TestNDJSONSink asserts the -events FILE format: one JSON object per
// line with the documented keys, ending with the terminal
// campaign.done event — the shape the CI telemetry smoke validates
// with jq.
func TestNDJSONSink(t *testing.T) {
	r := NewRegistry()
	bus := r.EnableEvents(64)
	var buf bytes.Buffer
	bus.AddSink(NewNDJSONSink(&buf))
	bus.Publish("collect.chunk", "", 60, 0)
	bus.Publish("report.pass", "final", -1, 12)
	bus.Publish("campaign.done", "", -1, 1)
	bus.Close()

	var lines []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", len(lines))
	}
	last := lines[len(lines)-1]
	if last.Kind != "campaign.done" {
		t.Errorf("terminal event kind = %q, want campaign.done", last.Kind)
	}
	if lines[1].Kind != "report.pass" || lines[1].Name != "final" || lines[1].N != 12 {
		t.Errorf("report.pass line = %+v", lines[1])
	}
}

// TestNilBusDisabled asserts the disabled path end to end: a nil bus
// ignores every call, and the snapshot of a bus-less registry carries
// no events block.
func TestNilBusDisabled(t *testing.T) {
	var r *Registry
	if b := r.EnableEvents(8); b != nil {
		t.Fatal("nil registry returned a bus")
	}
	b := r.Events()
	b.Publish("collect.chunk", "", 0, 0)
	b.AddSink(func(Event) {})
	b.Close()
	if st := b.Stats(); st.Published != 0 || st.Dropped != 0 || st.ByKind != nil {
		t.Errorf("nil bus stats = %+v", st)
	}
	enabled := NewRegistry()
	if d := enabled.Snapshot(); d.Events != nil {
		t.Error("bus-less registry snapshot has an events block")
	}
}
