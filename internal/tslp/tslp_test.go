package tslp

import (
	"math/rand"
	"sync"
	"testing"

	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// world is the package's shared small world, generated on first use.
var world = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

func prober() *Prober {
	return &Prober{Model: world().Model, BasePathRTTms: 18, NoiseMs: 0.4}
}

func localHourOf(l *topology.Link, minute int) float64 {
	return world().Topo.MustMetro(l.Metro).LocalHour(minute)
}

// congestedLink returns a GTT-AT&T link (saturated at peak by the
// default scenario) and a healthy interdomain link.
func testLinks(t *testing.T) (congested, healthy *topology.Link) {
	t.Helper()
	att := world().Access["AT&T"]
	for _, a := range att.Org.ASNs {
		for _, l := range world().Topo.InterdomainLinks(3257, a) {
			if l.PeakUtil >= 1.2 {
				congested = l
			}
		}
	}
	for _, l := range world().Topo.InterdomainLinks(0, 0) {
		if l.PeakUtil < 0.8 {
			healthy = l
			break
		}
	}
	if congested == nil || healthy == nil {
		t.Fatal("scenario links missing")
	}
	return congested, healthy
}

func TestProbeShape(t *testing.T) {
	congested, _ := testLinks(t)
	p := prober()
	rng := rand.New(rand.NewSource(1))
	// Peak local hour in the link's metro.
	m := world().Topo.MustMetro(congested.Metro)
	peakMinute := ((21 - m.UTCOffset) % 24) * 60
	offMinute := ((10 - m.UTCOffset + 24) % 24) * 60
	sPeak := p.Probe(congested, peakMinute, rng)
	sOff := p.Probe(congested, offMinute, rng)
	if sPeak.Diff() <= sOff.Diff() {
		t.Errorf("peak diff %.1f not above off-peak %.1f on saturated link", sPeak.Diff(), sOff.Diff())
	}
	if sPeak.Diff() < 50 {
		t.Errorf("saturated-link peak diff %.1f ms, want bufferbloat-scale", sPeak.Diff())
	}
	if sPeak.NearRTTms > 25 {
		t.Errorf("near probe %.1f should not include the link queue", sPeak.NearRTTms)
	}
}

func TestAnalyzeSeparatesLinks(t *testing.T) {
	congested, healthy := testLinks(t)
	p := prober()
	rng := rand.New(rand.NewSource(2))

	sc := p.Collect(congested, 7, 10, rng)
	rc := Analyze(sc, func(m int) float64 { return localHourOf(congested, m) }, DefaultConfig())
	if !rc.Congested {
		t.Errorf("saturated link not detected: %+v", rc)
	}
	if rc.ElevationMs < 20 {
		t.Errorf("elevation %.1f ms small for a saturated link", rc.ElevationMs)
	}

	sh := p.Collect(healthy, 7, 10, rng)
	rh := Analyze(sh, func(m int) float64 { return localHourOf(healthy, m) }, DefaultConfig())
	if rh.Congested {
		t.Errorf("healthy link flagged: %+v", rh)
	}
}

func TestAnalyzeEmptyWindows(t *testing.T) {
	r := Analyze(nil, func(int) float64 { return 0 }, DefaultConfig())
	if r.Congested || r.Samples != 0 {
		t.Errorf("empty analysis = %+v", r)
	}
	// Zero config defaults.
	r = Analyze([]Sample{{Minute: 0}}, func(int) float64 { return 3 }, Config{})
	if r.Congested {
		t.Error("single off-window sample cannot be congested")
	}
}

func TestSurveyFindsExactlyTheSaturatedLinks(t *testing.T) {
	// Probe every interdomain link of the world; the flagged set must
	// align with ground truth (PeakUtil >= 1) with high accuracy.
	links := world().Topo.InterdomainLinks(0, 0)
	p := prober()
	rng := rand.New(rand.NewSource(3))
	results := Survey(p, links, 5, 15, DefaultConfig(), rng)
	if len(results) != len(links) {
		t.Fatalf("%d results for %d links", len(results), len(links))
	}
	tp, fp, fn, tn := 0, 0, 0, 0
	for _, l := range links {
		r := results[l.ID]
		truth := l.PeakUtil >= 1
		switch {
		case r.Congested && truth:
			tp++
		case r.Congested && !truth:
			fp++
		case !r.Congested && truth:
			fn++
		default:
			tn++
		}
	}
	if tp == 0 {
		t.Fatal("no saturated links detected")
	}
	if fn > 0 {
		t.Errorf("%d saturated links missed", fn)
	}
	// Busy-but-unsaturated links can elevate by a few ms; allow a small
	// false-positive rate (they're the §6.2 gray zone).
	if fp > (tp+tn)/10 {
		t.Errorf("too many false positives: %d (tp=%d tn=%d)", fp, tp, tn)
	}
}

// TestSurveyMatchesCollectAnalyze holds Survey's per-offset memo to the
// per-sample path: probing each link with Collect and analyzing it in
// its metro's local time, on one RNG shared in link order, must give
// the same results bit for bit.
func TestSurveyMatchesCollectAnalyze(t *testing.T) {
	links := world().Topo.InterdomainLinks(0, 0)
	offsets := map[int]bool{}
	for _, l := range links {
		offsets[world().Topo.MustMetro(l.Metro).UTCOffset] = true
	}
	if len(offsets) < 2 {
		t.Fatalf("links span %d UTC offsets, want at least 2", len(offsets))
	}
	p := prober()
	got := Survey(p, links, 3, 20, DefaultConfig(), rand.New(rand.NewSource(5)))
	rng := rand.New(rand.NewSource(5))
	congested := 0
	for _, l := range links {
		want := Analyze(p.Collect(l, 3, 20, rng), func(m int) float64 { return localHourOf(l, m) }, DefaultConfig())
		if got[l.ID] != want {
			t.Fatalf("link %d: Survey %+v, Collect+Analyze %+v", l.ID, got[l.ID], want)
		}
		if want.Congested {
			congested++
		}
	}
	if len(got) != len(links) || congested == 0 {
		t.Errorf("%d results for %d links, %d congested", len(got), len(links), congested)
	}
}

func TestCollectCadence(t *testing.T) {
	congested, _ := testLinks(t)
	p := prober()
	samples := p.Collect(congested, 2, 30, nil)
	if len(samples) != 2*24*2 {
		t.Errorf("%d samples, want %d", len(samples), 2*24*2)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Minute-samples[i-1].Minute != 30 {
			t.Fatal("cadence broken")
		}
	}
}

func BenchmarkSurvey(b *testing.B) {
	links := world().Topo.InterdomainLinks(0, 0)
	if len(links) > 100 {
		links = links[:100]
	}
	p := prober()
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Survey(p, links, 2, 30, DefaultConfig(), rng)
	}
}
