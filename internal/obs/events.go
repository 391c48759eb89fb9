package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The progress event bus. Metrics answer "how much"; events answer
// "what just happened": a chunk was published, a pipeline stage
// consumed an item, a fault retry fired, a report pass sealed. The bus is the pipeline's live feed of
// those moments, with the same contracts as the rest of the registry:
//
//   - Disabled is free. A nil *Bus (what Registry.Events returns when
//     no bus is attached) ignores Publish without allocating — pinned
//     by BenchmarkEventPublishDisabled — so emission sites cost one
//     branch when nobody is listening.
//   - Bounded and lossy, never blocking. Publish does a non-blocking
//     send into a fixed buffer; when the consumer falls behind, events
//     are counted as dropped instead of backpressuring the pipeline.
//     Telemetry must never change how fast the campaign runs, so
//     losing progress lines beats slowing collection.
//   - Ordered per publisher. Events are delivered to every sink from
//     one consumer goroutine in arrival order; Seq exposes global
//     publication order, and gaps in Seq are exactly the drops.

// Event is one progress notification.
type Event struct {
	// Seq is the global publication sequence number (1-based); a gap
	// between consecutive delivered events means the bus dropped the
	// events in between.
	Seq uint64 `json:"seq"`
	// WallMS is milliseconds since the bus was created.
	WallMS float64 `json:"wall_ms"`
	// Kind names the event family, dotted like metric names:
	// "collect.chunk", "pipeline.stage",
	// "fault.retry", "report.pass", "campaign.done".
	Kind string `json:"kind"`
	// Name qualifies the kind (stage name, fault kind); may be empty.
	Name string `json:"name,omitempty"`
	// SimMinute is the simulated-clock stamp when the event is tied to
	// campaign time (chunk watermarks), else -1.
	SimMinute int `json:"sim_minute"`
	// N is the event's magnitude: chunk index, item count, retry wave —
	// whatever the kind documents.
	N int64 `json:"n"`
}

// EventStats summarizes a bus after (or during) a run.
type EventStats struct {
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`
	// ByKind counts delivered events per kind (dropped events are not
	// attributed — they were never decoded).
	ByKind map[string]uint64 `json:"by_kind,omitempty"`
}

// Bus is a bounded, drop-counting progress event bus. Build one with
// Registry.EnableEvents; the nil bus is the disabled path.
type Bus struct {
	ch    chan Event
	start time.Time

	seq       atomic.Uint64
	published atomic.Uint64
	dropped   atomic.Uint64
	done      atomic.Bool

	mu      sync.Mutex
	sinks   []func(Event)
	byKind  map[string]uint64
	closing chan struct{}
	drained chan struct{}
	closed  sync.Once
}

// EnableEvents attaches a progress bus with the given buffer size
// (minimum 1) to the registry and returns it; the first call wins. On
// a nil registry it returns nil. Attach sinks before the instrumented
// work starts — events delivered while no sink is registered are
// counted but go nowhere.
func (r *Registry) EnableEvents(buffer int) *Bus {
	if r == nil {
		return nil
	}
	if buffer < 1 {
		buffer = 1
	}
	b := &Bus{
		ch: make(chan Event, buffer), start: time.Now(),
		byKind:  make(map[string]uint64),
		closing: make(chan struct{}), drained: make(chan struct{}),
	}
	if !r.bus.CompareAndSwap(nil, b) {
		return r.bus.Load()
	}
	go b.consume()
	return b
}

// Events returns the attached bus (nil when none, or on a nil
// registry).
func (r *Registry) Events() *Bus {
	if r == nil {
		return nil
	}
	return r.bus.Load()
}

// AddSink registers a delivery function. Sinks run on the bus's single
// consumer goroutine, in registration order, one event at a time — a
// slow sink makes the bus drop, never block.
func (b *Bus) AddSink(fn func(Event)) {
	if b == nil || fn == nil {
		return
	}
	b.mu.Lock()
	b.sinks = append(b.sinks, fn)
	b.mu.Unlock()
}

// Publish emits one event. It never blocks: when the buffer is full
// (or the bus is already closed) the event is counted as dropped and
// forgotten. simMinute < 0 means "not tied to the simulated clock".
// The nil bus ignores the call without allocating.
func (b *Bus) Publish(kind, name string, simMinute int, n int64) {
	if b == nil {
		return
	}
	e := Event{
		Seq:       b.seq.Add(1),
		WallMS:    float64(time.Since(b.start).Microseconds()) / 1000,
		Kind:      kind,
		Name:      name,
		SimMinute: simMinute,
		N:         n,
	}
	if simMinute < 0 {
		e.SimMinute = -1
	}
	if b.done.Load() {
		// Closed: the buffer would hold the event forever (the channel
		// is deliberately never closed), so count it as dropped.
		b.dropped.Add(1)
		return
	}
	select {
	case b.ch <- e:
		b.published.Add(1)
	default:
		b.dropped.Add(1)
	}
}

// consume is the single delivery goroutine.
func (b *Bus) consume() {
	deliver := func(e Event) {
		b.mu.Lock()
		b.byKind[e.Kind]++
		sinks := b.sinks
		b.mu.Unlock()
		for _, fn := range sinks {
			fn(e)
		}
	}
	for {
		select {
		case e := <-b.ch:
			deliver(e)
		case <-b.closing:
			for {
				select {
				case e := <-b.ch:
					deliver(e)
				default:
					close(b.drained)
					return
				}
			}
		}
	}
}

// Close drains buffered events through the sinks and stops delivery.
// It returns once every buffered event has been delivered. Publish
// after Close is safe and counts as dropped. The nil bus ignores it.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.closed.Do(func() {
		b.done.Store(true)
		close(b.closing)
	})
	<-b.drained
}

// Stats snapshots the bus counters (zero on the nil bus). ByKind is
// complete only after Close.
func (b *Bus) Stats() EventStats {
	if b == nil {
		return EventStats{}
	}
	st := EventStats{
		Published: b.published.Load(),
		Dropped:   b.dropped.Load(),
	}
	b.mu.Lock()
	if len(b.byKind) > 0 {
		st.ByKind = make(map[string]uint64, len(b.byKind))
		for k, v := range b.byKind {
			st.ByKind[k] = v
		}
	}
	b.mu.Unlock()
	return st
}

// NewNDJSONSink returns a sink that writes each event as one JSON line
// to w — the `-events FILE` stream. The caller owns buffering and
// flushing of w; writes happen on the bus consumer goroutine only.
func NewNDJSONSink(w io.Writer) func(Event) {
	enc := json.NewEncoder(w)
	return func(e Event) {
		_ = enc.Encode(e) // a full disk must not kill the campaign
	}
}
