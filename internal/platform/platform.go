// Package platform models the measurement platforms of the paper: the
// M-Lab NDT service with its crowdsourced client population, server
// selection, and Paris traceroute collection (including the
// single-threaded-collector artifact that loses ~25% of traceroutes,
// §4.1); Speedtest-style server lists; and Ark-style vantage points
// that run topology campaigns (§5.1).
package platform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"throughputlab/internal/datasets"
	"throughputlab/internal/faults"
	"throughputlab/internal/ndt"
	"throughputlab/internal/netsim"
	"throughputlab/internal/obs"
	"throughputlab/internal/routing"
	"throughputlab/internal/stats"
	"throughputlab/internal/stream"
	"throughputlab/internal/topogen"
	"throughputlab/internal/traceroute"
)

// Household is one crowdsourcing client: a home that may run NDT tests.
type Household struct {
	ISP      string
	Endpoint routing.Endpoint
	TierMbps float64
	// WiFiCapMbps is 0 for wired homes.
	WiFiCapMbps float64
}

// BuildPopulation creates households for every (ISP, metro) pool. Tier
// and Wi-Fi draws follow the ISP profiles; the same seed yields the
// same population. Addresses come from the pure ClientAt accessor, so
// building a population never mutates the World and repeated campaigns
// over one world see the same homes.
func BuildPopulation(w *topogen.World, perPoolClients int, seed int64) []Household {
	rng := rand.New(rand.NewSource(seed))
	var out []Household
	for _, p := range datasets.AccessISPs() {
		for _, metro := range p.Metros {
			for i := 0; i < perPoolClients; i++ {
				ep, ok := w.ClientAt(p.Name, metro, uint64(i))
				if !ok {
					continue
				}
				tw := make([]float64, len(p.Tiers))
				for ti, tier := range p.Tiers {
					tw[ti] = tier.Weight
				}
				tier := p.Tiers[stats.WeightedChoice(tw, rng)].DownMbps
				wifi := 0.0
				if rng.Float64() < p.WiFiDegradedFrac {
					wifi = 10 + 45*rng.Float64()
				}
				out = append(out, Household{
					ISP: p.Name, Endpoint: ep, TierMbps: tier, WiFiCapMbps: wifi,
				})
			}
		}
	}
	return out
}

// popCache memoizes the most recent BuildPopulation result.
// BuildPopulation is pure, so repeated campaigns over one world
// (ablation sweeps, the Battle-for-the-Net comparison, benchmarks)
// can share the slice; it is read-only during collection. One entry
// bounds the retained memory to a single population.
var popCache struct {
	sync.Mutex
	w       *topogen.World
	clients int
	seed    int64
	pop     []Household
}

func population(w *topogen.World, perPoolClients int, seed int64) []Household {
	popCache.Lock()
	defer popCache.Unlock()
	if popCache.w == w && popCache.clients == perPoolClients && popCache.seed == seed {
		return popCache.pop
	}
	pop := BuildPopulation(w, perPoolClients, seed)
	popCache.w, popCache.clients, popCache.seed, popCache.pop = w, perPoolClients, seed, pop
	return pop
}

// DefaultShards is the number of RNG shards a campaign is split into
// when CollectConfig.Shards is zero. The shard count is part of the
// corpus identity: (Seed, Shards) fully determine the corpus, and the
// worker count never does.
const DefaultShards = 16

// CollectConfig parameterizes a corpus collection campaign.
type CollectConfig struct {
	Seed int64
	// Days of simulated collection (the paper's case study is one
	// month, May 2015).
	Days int
	// Tests is the total number of NDT tests to run.
	Tests int
	// PerPoolClients sizes the household population.
	PerPoolClients int
	// Shards splits arrival scheduling into independent RNG streams
	// (seed + shard), merged deterministically; 0 means DefaultShards.
	// Together with Seed it defines the corpus — see the determinism
	// contract in DESIGN.md.
	Shards int
	// BattleForNet makes each client test against up to five nearby
	// sites back-to-back instead of only the closest (§2.2).
	BattleForNet bool
	// TracerouteDurationMin is how long the single-threaded collector
	// is busy per traceroute; concurrent NDT arrivals at the same
	// server lose their traceroute (§4.1).
	TracerouteDurationMin int
	// Artifacts configures traceroute imperfections.
	Artifacts traceroute.Artifacts
	// Faults is the measurement-plane fault profile (zero/Off =
	// disabled). Together with FaultSeed it extends the corpus
	// identity: a disabled profile leaves the corpus byte-identical to
	// a build without the fault layer, and a fixed profile yields a
	// byte-identical corpus at every worker count.
	Faults faults.Profile
	// FaultSeed seeds the fault-injection streams; 0 means reuse Seed.
	FaultSeed int64
	// ChunkTests bounds how many executed tests are resident at once
	// during streamed collection: CollectStreamCtx publishes the corpus in
	// contiguous chunks of at most this many scheduled tests. 0 means
	// DefaultChunkTests. The chunk size is NOT part of the corpus
	// identity — concatenating the chunks yields the identical corpus
	// at any value.
	ChunkTests int
	// Obs, when non-nil, receives collection phase spans, per-shard
	// test/trace gauges, busy-collector rejection counters, and the
	// fault layer's injected/retried/recovered/abandoned counters. It
	// is not part of the corpus identity: the corpus is byte-identical
	// with and without it (see the golden tests).
	Obs *obs.Registry
	// StartChunk resumes a streamed campaign mid-stream: chunks with
	// index below it are never executed or published — the resume path
	// replays them from a persisted corpus prefix instead. Scheduling,
	// retry planning and the collector sweep still cover the whole
	// campaign (cheap, deterministic bookkeeping), so chunk StartChunk
	// onward is byte-identical to the same chunks of a full run. Like
	// ChunkTests it is NOT part of the corpus identity; it only selects
	// which suffix of the identical stream is produced.
	StartChunk int
}

// DefaultChunkTests is the streamed-collection chunk size when
// CollectConfig.ChunkTests is zero. At ~1KB per test record plus its
// trace, an 8k chunk keeps the in-flight window around 20MB no matter
// how many tests the campaign schedules.
const DefaultChunkTests = 8192

// DefaultCollect returns the standard May-2015-style campaign.
func DefaultCollect() CollectConfig {
	return CollectConfig{
		Seed:                  7,
		Days:                  28,
		Tests:                 60000,
		PerPoolClients:        40,
		TracerouteDurationMin: 3,
		Artifacts:             traceroute.DefaultArtifacts(),
	}
}

// Corpus is everything the platform publishes: NDT test records and
// (unassociated) Paris traceroutes. Inference code must join them by
// endpoint and time window, exactly as §4.1 describes.
type Corpus struct {
	Tests  []*ndt.Test
	Traces []*traceroute.Trace
	// TestsWithoutTrace counts tests whose traceroute was skipped by
	// the busy collector (ground truth for the matching experiment).
	TestsWithoutTrace int
	// Completeness accounts for what the fault plane cost the campaign.
	// It stays the zero value when faults are disabled.
	Completeness Completeness
}

// Completeness is the campaign's data-loss ledger under fault
// injection: how many scheduled tests were permanently lost, how many
// published records are partial, and how many traces were maimed. The
// report surfaces it so every inference result can be read against the
// integrity of the data it came from.
type Completeness struct {
	// ScheduledTests is the campaign's intended test count.
	ScheduledTests int
	// AbandonedTests were given up after exhausting retries or the
	// per-test deadline.
	AbandonedTests int
	// DroppedRows are published test rows lost to corruption.
	DroppedRows int
	// TruncatedTests are retained records with partial web100 snapshots.
	TruncatedTests int
	// DegradedTraces are retained traces maimed by probe loss or ICMP
	// rate limiting.
	DegradedTraces int
}

// Merge folds another ledger into this one (chunk → campaign totals).
func (c *Completeness) Merge(o Completeness) {
	c.ScheduledTests += o.ScheduledTests
	c.AbandonedTests += o.AbandonedTests
	c.DroppedRows += o.DroppedRows
	c.TruncatedTests += o.TruncatedTests
	c.DegradedTraces += o.DegradedTraces
}

// Degraded reports whether the campaign lost or maimed any data.
func (c Completeness) Degraded() bool {
	return c.AbandonedTests > 0 || c.DroppedRows > 0 ||
		c.TruncatedTests > 0 || c.DegradedTraces > 0
}

// testVolumeShape is the diurnal test-arrival profile: crowdsourced
// users run tests mostly in the evening, rarely at 4am (§6.1 "time of
// day bias").
func testVolumeShape(localHour float64) float64 {
	return 0.06 + 0.94*netsim.DiurnalShape(localHour)
}

// arrival is one scheduled NDT test, fully determined at scheduling
// time: every random draw its execution needs (entropy, collector
// launch lag, the per-arrival RNG stream) is made by the shard RNG, so
// executing arrivals in parallel cannot perturb the corpus.
type arrival struct {
	shard, ord int // scheduling position, for deterministic tie-breaks
	hh         int
	minute     int
	site       *topogen.MLabSite
	entropy    uint32
	// lag is the traceroute launch offset relative to the test start,
	// in [-2, +10] minutes (§4.1 timestamp skew).
	lag int
	// rngSeed seeds the arrival-private RNG that drives the test's
	// noise draws and the traceroute's artifact draws.
	rngSeed int64
}

// arrivalEntity is the arrival's stable fault-stream key. The
// arrival-private RNG seed is drawn once from the shard stream at
// scheduling time, so it identifies the arrival identically at every
// worker count — exactly the property fault draws need.
func arrivalEntity(a arrival) uint64 { return uint64(a.rngSeed) }

// shardSeed derives the RNG seed of one scheduling shard. A
// golden-ratio stride keeps shard streams away from each other and
// from the population stream at Seed+1.
func shardSeed(seed int64, shard int) int64 {
	return int64(uint64(seed) + uint64(shard+1)*0x9E3779B97F4A7C15)
}

// scheduleCtx is the shared read-only state of one campaign's
// scheduling phase: the household population with its precomputed
// samplers, and the per-metro nearest-site lists (NearestMLabSite
// re-sorted all sites per arrival before; every shard now reads the
// same precomputed slices).
type scheduleCtx struct {
	households  []Household
	hhSampler   *stats.WeightedSampler
	hourSampler *stats.WeightedSampler
	// sites maps a metro to its candidate M-Lab sites under the
	// campaign's selection mode (slack 6 ms for BattleForNet, the
	// single nearest tier otherwise).
	sites map[string][]*topogen.MLabSite
}

// newScheduleCtx precomputes the campaign's scheduling state. The
// per-metro site lists are exactly NearestMLabSite's output, so the
// schedule draws are unchanged.
func newScheduleCtx(w *topogen.World, cfg CollectConfig, households []Household,
	hw []float64, hourW *[24]float64) *scheduleCtx {

	ctx := &scheduleCtx{
		households:  households,
		hhSampler:   stats.NewWeightedSampler(hw),
		hourSampler: stats.NewWeightedSampler(hourW[:]),
		sites:       make(map[string][]*topogen.MLabSite),
	}
	slack := 0.0
	if cfg.BattleForNet {
		slack = 6
	}
	for _, h := range households {
		m := h.Endpoint.Metro
		if _, ok := ctx.sites[m]; !ok {
			ctx.sites[m] = w.NearestMLabSite(m, slack)
		}
	}
	return ctx
}

// scheduleShard draws the arrivals of one shard: tests [first,
// first+count) of the campaign, scheduled from the shard's own RNG
// stream.
func scheduleShard(w *topogen.World, cfg CollectConfig, ctx *scheduleCtx,
	shard, count int) []arrival {

	rng := rand.New(rand.NewSource(shardSeed(cfg.Seed, shard)))
	out := make([]arrival, 0, count)
	for n := 0; n < count; n++ {
		hi := ctx.hhSampler.Pick(rng)
		h := ctx.households[hi]
		metro := w.Topo.MustMetro(h.Endpoint.Metro)
		localH := ctx.hourSampler.Pick(rng)
		day := rng.Intn(cfg.Days)
		utcH := ((localH-metro.UTCOffset)%24 + 24) % 24
		minute := day*1440 + utcH*60 + rng.Intn(60)

		sites := ctx.sites[h.Endpoint.Metro]
		if cfg.BattleForNet {
			// The Battle-for-the-Net wrapper tests back-to-back against
			// up to five servers in the region (§2.2).
			if len(sites) > 5 {
				sites = sites[:5]
			}
		} else if len(sites) > 1 {
			// The M-Lab backend picks one server near the client.
			i := rng.Intn(len(sites))
			sites = sites[i : i+1]
		}
		for _, site := range sites {
			out = append(out, arrival{
				shard: shard, ord: len(out), hh: hi, minute: minute, site: site,
				entropy: rng.Uint32(),
				lag:     -2 + rng.Intn(13),
				rngSeed: rng.Int63(),
			})
			minute += 2 + rng.Intn(3) // back-to-back tests (BattleForNet)
		}
	}
	return out
}

// Chunk is one contiguous slice of a streamed campaign: the published
// records of schedule ids [FirstID, FirstID+scheduled). Chunks arrive
// at the sink in id order, and concatenating their Tests and Traces
// reproduces the batch Corpus byte-for-byte.
type Chunk struct {
	// Index is the chunk's position in the stream (0-based).
	Index int
	// FirstID is the schedule id of the chunk's first arrival.
	FirstID int
	Tests   []*ndt.Test
	Traces  []*traceroute.Trace
	// TestsWithoutTrace counts this chunk's busy-collector losses; the
	// campaign total is the sum over chunks.
	TestsWithoutTrace int
	// Completeness is this chunk's slice of the fault ledger (zero when
	// faults are off); the campaign ledger is the field-wise sum.
	Completeness Completeness
	// Watermark is the largest scheduled minute covered by the chunk.
	// Every later chunk's tests start at minute ≥ Watermark, and every
	// later trace launches at minute ≥ Watermark−2 (the most negative
	// collector lag) — the bound streaming consumers use to finalize
	// time-windowed state.
	Watermark int
}

// StreamStats summarizes a streamed campaign: the totals a batch
// Corpus would carry, plus the streaming envelope.
type StreamStats struct {
	Chunks            int
	Tests             int
	Traces            int
	TestsWithoutTrace int
	Completeness      Completeness
	// PeakInFlight is the largest number of scheduled tests resident in
	// one chunk — the memory high-water mark of the record window.
	PeakInFlight int
	// WallSeconds and TestsPerSec time the whole collection (schedule
	// through last chunk published).
	WallSeconds float64
	TestsPerSec float64
}

// addChunk folds one chunk into the running totals.
func (st *StreamStats) addChunk(c *Chunk, scheduled int) {
	st.Chunks++
	st.Tests += len(c.Tests)
	st.Traces += len(c.Traces)
	st.TestsWithoutTrace += c.TestsWithoutTrace
	st.Completeness.Merge(c.Completeness)
	if scheduled > st.PeakInFlight {
		st.PeakInFlight = scheduled
	}
}

// ErrInterrupted marks a campaign stopped early by cooperative
// cancellation: in-flight chunks were drained and published, nothing
// was torn, and the work is resumable from the last durable chunk.
// Callers detect it with errors.Is.
var ErrInterrupted = errors.New("campaign interrupted")

// ctxErr folds cooperative cancellation into the collection error
// chain: nil while ctx lives, otherwise the context's cause (the
// interrupt sentinel the CLI cancels with, or context.Canceled).
func ctxErr(ctx context.Context) error {
	if ctx.Err() != nil {
		return fmt.Errorf("platform: collection interrupted: %w", context.Cause(ctx))
	}
	return nil
}

// CollectParallelCtx runs a full crowdsourced campaign with the given
// worker count, materializing the whole corpus in memory. It is
// CollectStreamCtx with an appending sink, so batch and streamed
// collection are byte-identical by construction. A cancelled ctx stops
// the campaign at the next chunk boundary with an error wrapping the
// context's cause.
//
// Determinism contract: the corpus depends only on (World, cfg) —
// scheduling is split into cfg.Shards independent RNG streams that are
// merged in (minute, shard, ord) order, the single-threaded-collector
// state is evaluated in one deterministic sequential sweep over the
// merged schedule, and each arrival then executes against its own
// pre-seeded RNG. Workers only change how the scheduling and execution
// phases are spread over goroutines, never which draws are made.
func CollectParallelCtx(ctx context.Context, w *topogen.World, cfg CollectConfig, workers int) (*Corpus, error) {
	corpus := &Corpus{}
	st, err := CollectStreamCtx(ctx, w, cfg, workers, func(c *Chunk) error {
		corpus.Tests = append(corpus.Tests, c.Tests...)
		corpus.Traces = append(corpus.Traces, c.Traces...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	corpus.TestsWithoutTrace = st.TestsWithoutTrace
	corpus.Completeness = st.Completeness
	return corpus, nil
}

// CollectStreamCtx runs the campaign and hands the corpus to sink one
// bounded chunk at a time instead of materializing it. Scheduling, the
// fault retry plan, and the busy-collector sweep hold O(Tests) of small
// per-arrival bookkeeping (~100 bytes each), but the heavy records
// (tests with web100 snapshots, traces with hop lists) exist only for
// the chunk currently executing, so memory stays flat at ChunkTests
// records regardless of campaign size. All workers execute inside one
// chunk at a time; the chunk is published before the next one starts.
//
// The sink is called serially, in chunk order. A sink error aborts the
// campaign and is returned. The chunk's slices are not reused; the sink
// may retain them.
//
// Cancellation is honored at phase and chunk boundaries: a published
// chunk is never torn, no new chunk starts, and the error wraps the
// context's cause — ErrInterrupted when the CLI's signal handler
// cancelled, so callers can tell a resumable interrupt from a failure.
func CollectStreamCtx(ctx context.Context, w *topogen.World, cfg CollectConfig, workers int, sink func(*Chunk) error) (*StreamStats, error) {
	started := time.Now()
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if workers < 1 {
		workers = 1
	}
	reg := cfg.Obs
	collectSpan := reg.Span("collect")
	defer collectSpan.End()

	// The fault plane. A disabled profile yields a nil injector — the
	// draw-free no-op — so every fault branch below is byte-invisible
	// when faults are off.
	faultSeed := cfg.FaultSeed
	if faultSeed == 0 {
		faultSeed = cfg.Seed
	}
	inj := faults.NewInjector(faultSeed, cfg.Faults, reg)

	popSpan := reg.Span("collect.population")
	households := population(w, cfg.PerPoolClients, cfg.Seed+1)
	popSpan.End()
	reg.Gauge("collect.households").Set(int64(len(households)))
	runner := ndt.NewRunner(w)
	tracer := traceroute.New(w.Topo, w.Resolver, cfg.Artifacts)

	// Weight households by ISP subscriber counts so the corpus mirrors
	// the real user base (Table 1).
	subs := map[string]float64{}
	for _, p := range datasets.AccessISPs() {
		s := p.SubscribersM
		if s == 0 {
			s = 0.4 // below-table ISPs still contribute a trickle
		}
		subs[p.Name] = s
	}
	hw := make([]float64, len(households))
	for i, h := range households {
		hw[i] = subs[h.ISP]
	}

	// Hour-of-day weights for arrivals, in client local time. Sampling:
	// pick household, then pick a local hour by volume, then convert to
	// a UTC minute on a random day.
	var hourW [24]float64
	for h := 0; h < 24; h++ {
		hourW[h] = testVolumeShape(float64(h) + 0.5)
	}

	// Phase 1 — scheduling, parallel over shards. Shard s draws
	// Tests/shards arrivals (the first Tests%shards shards draw one
	// more) from its own stream.
	schedSpan := reg.Span("collect.schedule")
	sctx := newScheduleCtx(w, cfg, households, hw, &hourW)
	perShard := make([][]arrival, shards)
	stream.For(shards, workers, nil, func(_, s int) {
		count := cfg.Tests / shards
		if s < cfg.Tests%shards {
			count++
		}
		// Transient shard failures lose the shard's scheduling work;
		// the retry redoes it. scheduleShard is pure, so the surviving
		// attempt is identical to a first-try success and the corpus is
		// unchanged — only the work (and the fault counters) differ.
		for attempt := inj.ShardAttempts(s); attempt > 0; attempt-- {
			perShard[s] = scheduleShard(w, cfg, sctx, s, count)
		}
	})
	if reg != nil {
		for s, sh := range perShard {
			reg.Gauge(fmt.Sprintf("collect.shard.%02d.tests", s)).Set(int64(len(sh)))
		}
	}
	// One counting sort scatters the shards straight into the schedule.
	// Ties on minute resolve by (shard, ord), the order the shards are
	// visited in, so the merge is a total order independent of worker
	// count: exactly a stable sort of the shards' concatenation.
	schedule := sortByMinute(perShard, func(a arrival) int { return a.minute })
	schedSpan.End()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Phase 1.5 — retry planning (fault plane only). Launch-blocking
	// faults (server outages, test aborts) are evaluated per attempt and
	// retried on a simulated clock: exponential backoff with
	// deterministic jitter, bounded by MaxRetries and the per-test
	// deadline. The whole phase is a serial sweep over pure per-entity
	// streams, so it is identical at every worker count. execMinute and
	// dropped stay nil when faults are off — no branch below them can
	// then perturb the clean path.
	var (
		execMinute []int
		dropped    []bool
	)
	if inj != nil {
		retrySpan := reg.Span("collect.retries")
		execMinute = make([]int, len(schedule))
		dropped = make([]bool, len(schedule))
		lastFail := make([]faults.FaultSet, len(schedule))
		cumFail := make([]faults.FaultSet, len(schedule))
		pending := make([]int, 0, len(schedule)/8+1)
		for id, a := range schedule {
			execMinute[id] = a.minute
			if fs := inj.TestAttempt(a.site.Metro, arrivalEntity(a), a.minute, 0); fs != 0 {
				lastFail[id], cumFail[id] = fs, fs
				pending = append(pending, id)
			}
		}
		for wave := 1; wave <= inj.MaxRetries() && len(pending) > 0; wave++ {
			waveSpan := retrySpan.Child(fmt.Sprintf("wave.%d", wave))
			// Filter in place: the write index never passes the read
			// index, so pending doubles as next wave's worklist.
			next := pending[:0]
			for _, id := range pending {
				a := schedule[id]
				entity := arrivalEntity(a)
				m := execMinute[id] + inj.RetryDelayMin(entity, wave)
				if m > a.minute+inj.DeadlineMin() {
					dropped[id] = true
					inj.Abandoned(cumFail[id])
					continue
				}
				inj.Retried(lastFail[id])
				execMinute[id] = m
				if fs := inj.TestAttempt(a.site.Metro, entity, m, wave); fs != 0 {
					lastFail[id] = fs
					cumFail[id] |= fs
					next = append(next, id)
					continue
				}
				inj.Recovered(cumFail[id])
			}
			pending = next
			waveSpan.End()
		}
		for _, id := range pending { // out of retries
			dropped[id] = true
			inj.Abandoned(cumFail[id])
		}
		retrySpan.End()
	}

	// Phase 2 — the single-threaded traceroute collector (§4.1) is
	// global sequential state: sweep the merged schedule once in time
	// order, deciding per arrival whether its traceroute launches and
	// when. This is pure integer bookkeeping and stays serial.
	launches := make([]int, len(schedule)) // launch minute, -1 = collector busy
	// The busy table is dense: site pointers index into one slot per
	// server (all sites live in w.MLabSites, so the pointer map is
	// exact), replacing a per-arrival string-keyed map lookup.
	siteOff := make(map[*topogen.MLabSite]int, len(w.MLabSites))
	nServers := 0
	for i := range w.MLabSites {
		siteOff[&w.MLabSites[i]] = nServers
		nServers += len(w.MLabSites[i].Servers)
	}
	sweepSpan := reg.Span("collect.sweep")
	busyRejected := reg.Counter("collect.trace.rejected_busy")
	busyUntil := make([]int, nServers)
	// Under faults, retries move tests off their scheduled minute, so
	// the sweep re-sorts surviving arrivals by execution time (ties by
	// id, i.e. the clean merge order) and abandoned tests never reach
	// the collector. Clean runs keep the identity order — the loop below
	// is then exactly the pre-fault sweep.
	order := make([]int, 0, len(schedule))
	for id := range schedule {
		if dropped != nil && dropped[id] {
			launches[id] = -1
			continue
		}
		order = append(order, id)
	}
	if inj != nil {
		order = sortByMinute([][]int{order}, func(id int) int { return execMinute[id] })
	}
	for _, id := range order {
		a := schedule[id]
		minute := a.minute
		if execMinute != nil {
			minute = execMinute[id]
		}
		srv := siteOff[a.site] + int(a.entropy)%len(a.site.Servers)
		if busyUntil[srv] > minute {
			launches[id] = -1
			busyRejected.Inc()
			continue
		}
		// Launch lag: the collector queues behind test teardown, and
		// recorded timestamps skew slightly, so a trace can carry a
		// timestamp up to ~2 minutes BEFORE its test and as much as ~10
		// minutes after — which is why the paper's ±window matching
		// recovers more pairs than the after-only window (§4.1).
		launch := minute + a.lag
		if launch < 0 {
			launch = 0
		}
		busyUntil[srv] = launch + cfg.TracerouteDurationMin
		launches[id] = launch
	}
	sweepSpan.End()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Phase 3 — execution, parallel over arrivals, chunked. Each
	// arrival runs its NDT test and (when scheduled) its traceroute
	// against a private RNG seeded during scheduling, so results land in
	// fixed slots regardless of which worker computes them. Each worker
	// owns one Rand over a stats.LazySource and re-Seeds it per arrival.
	// LazySource draws exactly the rand.NewSource(s) stream, but its
	// Seed is O(1): math/rand's Seed fills all 607 register words with
	// 1,841 serial LCG steps, while an arrival makes ~19 draws, so the
	// lazy source computes only the words those draws read. Chunking
	// changes only which ids execute together, never the draws: the
	// per-arrival RNG makes every id's result independent of its
	// neighbors, and ids publish in order within and across chunks, so
	// the concatenated stream is the batch corpus.
	chunkTests := cfg.ChunkTests
	if chunkTests <= 0 {
		chunkTests = DefaultChunkTests
	}
	startChunk := cfg.StartChunk
	if startChunk < 0 {
		startChunk = 0
	}
	execSpan := reg.Span("collect.execute")
	workerRNGs := make([]*rand.Rand, workers)
	for i := range workerRNGs {
		workerRNGs[i] = rand.New(stats.NewLazySource(0))
	}
	// Per-worker cumulative NDT and traceroute time, flushed into
	// counters at each chunk boundary. Only a telemetered run reads the
	// clock; nil keeps the telemetry-off path free of it.
	var execTimes []workerExecTime
	if reg != nil {
		execTimes = make([]workerExecTime, workers)
	}
	st := &StreamStats{}
	perShardTraces := make([]int64, shards)
	// execArrival runs one scheduled test (and its traceroute, when the
	// collector launched one) against the arrival's pre-seeded private
	// RNG, writing the records into slot i. Which worker runs it can
	// never perturb the draws.
	execArrival := func(worker, id int, tests []*ndt.Test, traces []*traceroute.Trace, i int) error {
		if dropped != nil && dropped[id] {
			return nil // abandoned by the retry planner; never ran
		}
		a := schedule[id]
		minute := a.minute
		if execMinute != nil {
			minute = execMinute[id]
		}
		h := households[a.hh]
		server := a.site.Servers[int(a.entropy)%len(a.site.Servers)]
		rng := workerRNGs[worker]
		rng.Seed(a.rngSeed)
		var t0 time.Time
		if execTimes != nil {
			t0 = time.Now()
		}
		test, err := runner.Run(id, h.Endpoint, h.ISP, h.TierMbps, h.WiFiCapMbps,
			server, minute, a.entropy, rng)
		if execTimes != nil {
			execTimes[worker].ndtNs += time.Since(t0).Nanoseconds()
		}
		if err != nil {
			return err
		}
		if inj != nil {
			if frac, ok := inj.TruncatesTest(arrivalEntity(a)); ok {
				test.Truncate(frac)
			}
		}
		tests[i] = test
		if launches[id] < 0 {
			return nil
		}
		if execTimes != nil {
			t0 = time.Now()
		}
		tr, err := tracer.Trace(server.Endpoint, h.Endpoint, a.entropy+1, launches[id], rng)
		if execTimes != nil {
			execTimes[worker].traceNs += time.Since(t0).Nanoseconds()
		}
		if err != nil {
			return err
		}
		inj.PerturbTrace(arrivalEntity(a), tr)
		traces[i] = tr
		return nil
	}
	for lo := startChunk * chunkTests; lo < len(schedule); lo += chunkTests {
		if err := ctxErr(ctx); err != nil {
			execSpan.End()
			return nil, err
		}
		hi := lo + chunkTests
		if hi > len(schedule) {
			hi = len(schedule)
		}
		tests := make([]*ndt.Test, hi-lo)
		traces := make([]*traceroute.Trace, hi-lo)
		errs := make([]error, hi-lo)
		stream.For(hi-lo, workers, nil, func(worker, i int) {
			if err := execArrival(worker, lo+i, tests, traces, i); err != nil {
				errs[i] = err
			}
		})
		for _, err := range errs {
			if err != nil {
				execSpan.End()
				return nil, err
			}
		}
		chunk := publishChunk(lo/chunkTests, lo, hi, schedule, tests, traces, launches, dropped, inj)
		for i, tr := range traces {
			if tr != nil {
				perShardTraces[schedule[lo+i].shard]++
			}
		}
		st.addChunk(chunk, hi-lo)
		if reg != nil {
			reg.Counter("collect.tests").Add(uint64(len(chunk.Tests)))
			reg.Counter("collect.traces").Add(uint64(len(chunk.Traces)))
			reg.Counter("collect.chunks").Inc()
			var ndtNs, traceNs int64
			for k := range execTimes {
				ndtNs += execTimes[k].ndtNs
				traceNs += execTimes[k].traceNs
				execTimes[k] = workerExecTime{}
			}
			reg.Counter("collect.execute.ndt_ns").Add(uint64(ndtNs))
			reg.Counter("collect.execute.traceroute_ns").Add(uint64(traceNs))
		}
		if err := sink(chunk); err != nil {
			execSpan.End()
			return nil, fmt.Errorf("platform: corpus sink at chunk %d: %w", chunk.Index, err)
		}
		// Live telemetry rides the serial sink side: chunk watermarks
		// arrive in schedule order here, so the sampler observes a
		// monotone simulated clock. Both calls are nil-safe no-ops on
		// an unattached registry.
		reg.Events().Publish("collect.chunk", "", chunk.Watermark, int64(chunk.Index))
		reg.TimeSeries().Advance(chunk.Watermark)
	}
	execSpan.End()

	st.WallSeconds = time.Since(started).Seconds()
	if st.WallSeconds > 0 {
		st.TestsPerSec = float64(st.Tests) / st.WallSeconds
	}
	if reg != nil {
		for s, n := range perShardTraces {
			reg.Gauge(fmt.Sprintf("collect.shard.%02d.traces", s)).Set(n)
		}
		reg.Gauge("collect.stream.chunks").Set(int64(st.Chunks))
		reg.Gauge("collect.stream.peak_inflight").Set(int64(st.PeakInFlight))
		reg.Gauge("collect.stream.tests_per_sec").Set(int64(st.TestsPerSec))
	}
	finalMinute := -1
	if len(schedule) > 0 {
		finalMinute = schedule[len(schedule)-1].minute
	}
	reg.TimeSeries().Finalize(finalMinute)
	reg.Events().Publish("collect.done", "", finalMinute, int64(st.Tests))
	return st, nil
}

// workerExecTime is one execution worker's cumulative NDT and
// traceroute nanoseconds since the last chunk boundary, padded to a
// cache line so workers do not share one.
type workerExecTime struct {
	ndtNs, traceNs int64
	_              [48]byte
}

// publishChunk turns the executed slots of schedule ids [lo, hi) into
// one published Chunk. It is the batch publication logic applied to an
// id range: clean campaigns publish every test in id order and the
// launched traces in id order; under faults, abandoned tests vanish,
// corrupt rows drop, and the chunk's completeness delta accounts for
// each loss.
func publishChunk(index, lo, hi int, schedule []arrival, tests []*ndt.Test,
	traces []*traceroute.Trace, launches []int, dropped []bool, inj *faults.Injector) *Chunk {

	chunk := &Chunk{Index: index, FirstID: lo, Watermark: schedule[hi-1].minute}
	if inj == nil {
		chunk.Tests = tests
		nTraces := 0
		for _, tr := range traces {
			if tr != nil {
				nTraces++
			}
		}
		chunk.Traces = make([]*traceroute.Trace, 0, nTraces)
		for i, tr := range traces {
			if tr != nil {
				chunk.Traces = append(chunk.Traces, tr)
			} else if launches[lo+i] < 0 {
				chunk.TestsWithoutTrace++
			}
		}
		return chunk
	}
	// Publication under faults: abandoned tests never produced records,
	// corrupted rows are dropped at publication time (their traces
	// survive — the trace feed is a separate pipeline), and the
	// completeness ledger accounts for every loss.
	comp := Completeness{ScheduledTests: hi - lo}
	chunk.Tests = make([]*ndt.Test, 0, hi-lo)
	chunk.Traces = make([]*traceroute.Trace, 0, hi-lo)
	for i, test := range tests {
		if dropped[lo+i] {
			comp.AbandonedTests++
			continue
		}
		if test == nil {
			continue
		}
		if inj.CorruptsRow(arrivalEntity(schedule[lo+i])) {
			comp.DroppedRows++
			continue
		}
		if test.Truncated {
			comp.TruncatedTests++
		}
		chunk.Tests = append(chunk.Tests, test)
	}
	for i, tr := range traces {
		if tr == nil {
			if !dropped[lo+i] && launches[lo+i] < 0 {
				chunk.TestsWithoutTrace++
			}
			continue
		}
		if tr.Degraded {
			comp.DegradedTraces++
		}
		chunk.Traces = append(chunk.Traces, tr)
	}
	chunk.Completeness = comp
	return chunk
}

// sortByMinute returns the elements of runs, concatenated in order and
// stably sorted by minute, in one counting sort: elements on the same
// minute keep their run's place among the runs, then their place within
// the run. That is sort.SliceStable over the concatenation, without the
// concatenated copy or a comparison per element pair. A campaign's
// minutes span a few tens of thousands of values, so the count table is
// small next to the runs.
func sortByMinute[T any](runs [][]T, minute func(T) int) []T {
	n, lo, hi := 0, math.MaxInt, math.MinInt
	for _, run := range runs {
		for _, x := range run {
			m := minute(x)
			lo, hi = min(lo, m), max(hi, m)
		}
		n += len(run)
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	// next[m-lo] is the output slot of the next element on minute m.
	next := make([]int, hi-lo+1)
	for _, run := range runs {
		for _, x := range run {
			next[minute(x)-lo]++
		}
	}
	slot := 0
	for k, c := range next {
		next[k] = slot
		slot += c
	}
	for _, run := range runs {
		for _, x := range run {
			k := minute(x) - lo
			out[next[k]] = x
			next[k]++
		}
	}
	return out
}
