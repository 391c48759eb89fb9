package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"throughputlab/internal/bgp"
	"throughputlab/internal/geo"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/routing"
	"throughputlab/internal/topology"
)

func TestDiurnalShapeRange(t *testing.T) {
	f := func(h float64) bool {
		h = math.Abs(math.Mod(h, 24))
		s := DiurnalShape(h)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiurnalShapePeakAndTrough(t *testing.T) {
	if DiurnalShape(21) < 0.99 {
		t.Errorf("21:00 shape = %v, want ≈1 (peak)", DiurnalShape(21))
	}
	if DiurnalShape(9) > 0.01 {
		t.Errorf("09:00 shape = %v, want ≈0 (trough)", DiurnalShape(9))
	}
	if DiurnalShape(4) > DiurnalShape(20) {
		t.Error("4am load should be below 8pm load")
	}
}

func TestPerFlowShare(t *testing.T) {
	// Idle link: full capacity.
	if s := perFlowShareMbps(1000, 0); s != 1000 {
		t.Errorf("idle share = %v", s)
	}
	// Half loaded: residual dominates.
	if s := perFlowShareMbps(1000, 0.5); math.Abs(s-500) > 1 {
		t.Errorf("half-load share = %v, want ~500", s)
	}
	// Continuous at saturation.
	below := perFlowShareMbps(1000, 0.9999)
	at := perFlowShareMbps(1000, 1.0)
	if math.Abs(below-at) > 0.5 {
		t.Errorf("discontinuity at ρ=1: %v vs %v", below, at)
	}
	// Overload collapses monotonically.
	prev := at
	for rho := 1.05; rho < 2; rho += 0.05 {
		s := perFlowShareMbps(1000, rho)
		if s >= prev {
			t.Fatalf("share not decreasing at ρ=%v", rho)
		}
		prev = s
	}
	// Deep overload well below 2 Mbps.
	if s := perFlowShareMbps(1000, 1.3); s > 2.5 {
		t.Errorf("ρ=1.3 share = %v, want small", s)
	}
}

func TestPerFlowSharePositiveProperty(t *testing.T) {
	f := func(capRaw, rhoRaw float64) bool {
		c := 1 + math.Abs(math.Mod(capRaw, 1e5))
		rho := math.Abs(math.Mod(rhoRaw, 2))
		s := perFlowShareMbps(c, rho)
		return s > 0 && s <= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLossAndQueueMonotone(t *testing.T) {
	prevL, prevQ := -1.0, -1.0
	for rho := 0.0; rho <= 1.6; rho += 0.02 {
		l, q := lossAt(rho), queueMsAt(rho)
		if l < prevL || q < prevQ {
			t.Fatalf("loss/queue not monotone at ρ=%v", rho)
		}
		if l < 0 || q < 0 {
			t.Fatalf("negative loss/queue at ρ=%v", rho)
		}
		prevL, prevQ = l, q
	}
	if lossAt(1.25) < 0.01 {
		t.Error("overloaded link should lose >1% of packets")
	}
	if queueMsAt(1.25) < 50 {
		t.Error("overloaded link should add serious queueing delay")
	}
}

func TestMathisCap(t *testing.T) {
	// Textbook: 1.22 * 1460B*8 / (100ms * sqrt(1e-4)) ≈ 14.2 Mbps.
	got := MathisCapMbps(100, 1e-4)
	if math.Abs(got-14.2) > 0.5 {
		t.Errorf("Mathis(100ms, 1e-4) = %v, want ≈14.2", got)
	}
	// Lower RTT → higher cap (the paper's §2 latency argument).
	if MathisCapMbps(10, 1e-4) <= got {
		t.Error("cap should grow as RTT shrinks")
	}
	if !math.IsInf(MathisCapMbps(0, 1e-4), 1) {
		t.Error("zero RTT cap should be +Inf")
	}
}

// flowNet builds a minimal one-AS-pair network with a configurable
// interdomain link.
type flowNet struct {
	model  *Model
	rv     *routing.Resolver
	path   *routing.Path
	inter  *topology.Link
	access *topology.Link
}

func buildFlowNet(t testing.TB, interCap, interBase, interPeak float64) *flowNet {
	metros := []geo.Metro{{Code: "atl", Name: "Atlanta", Lat: 33.75, Lon: -84.39, UTCOffset: -5, Weight: 1}}
	tp := topology.New(metros)
	org1 := &topology.Org{Name: "T"}
	org2 := &topology.Org{Name: "A"}
	tp.AddAS(&topology.AS{ASN: 100, Name: "T", Org: org1, Type: topology.ASTypeTransit, Metros: []string{"atl"}})
	tp.AddAS(&topology.AS{ASN: 200, Name: "A", Org: org2, Type: topology.ASTypeAccess, Metros: []string{"atl"}})
	tp.SetRel(100, 200, topology.RelPeer)

	core1 := tp.AddRouter(100, "atl", topology.RouterCore, "core.t")
	b1 := tp.AddRouter(100, "atl", topology.RouterBorder, "edge.t")
	core2 := tp.AddRouter(200, "atl", topology.RouterCore, "core.a")
	b2 := tp.AddRouter(200, "atl", topology.RouterBorder, "edge.a")
	agg := tp.AddRouter(200, "atl", topology.RouterAccess, "agg.a")

	alloc := topology.NewAllocator(netaddr.MustParsePrefix("10.0.0.0/8"))
	infra := alloc.MustAlloc(16)
	tp.Originate(100, infra)
	n := uint64(0)
	addr := func() netaddr.Addr { n++; return infra.Nth(n) }
	intra := func(a, b *topology.Router) {
		tp.AddLink(a, b, topology.LinkSpec{
			Kind: topology.LinkIntra, Metro: "atl", CapacityMbps: 1e6,
			AddrA: addr(), AddrOwnerA: 100, AddrB: addr(), AddrOwnerB: 100,
		})
	}
	intra(core1, b1)
	intra(core2, b2)
	intra(core2, agg)

	p2p := alloc.MustAlloc(30)
	inter := tp.AddLink(b1, b2, topology.LinkSpec{
		Kind: topology.LinkInterdomain, Metro: "atl",
		CapacityMbps: interCap, BaseUtil: interBase, PeakUtil: interPeak,
		AddrA: p2p.Nth(1), AddrOwnerA: 100,
		AddrB: p2p.Nth(2), AddrOwnerB: 100,
	})

	pool := alloc.MustAlloc(20)
	tp.Originate(200, pool)
	tp.AS(200).ClientPools["atl"] = pool
	line := tp.AddLink(agg, nil, topology.LinkSpec{
		Kind: topology.LinkAccessLine, Metro: "atl", CapacityMbps: 400,
		BaseUtil: 0.2, PeakUtil: 0.85,
		AddrA: addr(), AddrOwnerA: 200,
	})

	if errs := tp.Validate(1, nil); len(errs) != 0 {
		t.Fatalf("invalid topology: %v", errs)
	}
	routes := bgp.ComputeLazy(tp)
	rv := routing.New(tp, routes)
	server := routing.Endpoint{Addr: infra.Nth(9000), ASN: 100, Metro: "atl", Router: core1.ID}
	client := routing.Endpoint{Addr: pool.Nth(5), ASN: 200, Metro: "atl", Router: agg.ID, AccessLine: line}
	path, err := rv.Resolve(server, client, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &flowNet{model: New(tp, rv), rv: rv, path: &path, inter: inter, access: line}
}

// minuteAtLocalHour converts a local hour in UTC-5 to a simulation
// minute.
func minuteAtLocalHour(h int) int { return ((h + 5) % 24) * 60 }

func TestBulkFlowHealthyOffPeak(t *testing.T) {
	n := buildFlowNet(t, 10000, 0.2, 0.6)
	res := n.model.BulkFlow(n.path, minuteAtLocalHour(5), FlowOpts{TierMbps: 50}, nil)
	if res.Kind != LimitAccessPlan {
		t.Errorf("off-peak healthy flow limited by %v, want access plan", res.Kind)
	}
	if math.Abs(res.ThroughputMbps-50) > 0.01 {
		t.Errorf("throughput = %v, want tier 50", res.ThroughputMbps)
	}
}

func TestBulkFlowCongestedInterconnect(t *testing.T) {
	// Paper Figure 5a regime: saturated interconnect at peak.
	n := buildFlowNet(t, 2000, 0.45, 1.3)
	peak := n.model.BulkFlow(n.path, minuteAtLocalHour(21), FlowOpts{TierMbps: 18}, nil)
	off := n.model.BulkFlow(n.path, minuteAtLocalHour(5), FlowOpts{TierMbps: 18}, nil)
	if peak.ThroughputMbps > 2 {
		t.Errorf("peak throughput across saturated link = %v Mbps, want < 2", peak.ThroughputMbps)
	}
	if off.ThroughputMbps < 10 {
		t.Errorf("off-peak throughput = %v, want near tier", off.ThroughputMbps)
	}
	if peak.Kind != LimitLink && peak.Kind != LimitLatency {
		t.Errorf("peak flow limited by %v, want link/latency", peak.Kind)
	}
	if peak.Kind == LimitLink && !peak.BottleneckSaturated {
		t.Error("bottleneck should be flagged saturated")
	}
	// Congestion inflates RTT and loss.
	if peak.RTTms <= off.RTTms {
		t.Error("peak RTT should exceed off-peak RTT (bufferbloat)")
	}
	if peak.LossRate <= off.LossRate {
		t.Error("peak loss should exceed off-peak loss")
	}
}

func TestBulkFlowBusyAccessDip(t *testing.T) {
	// Paper Figure 5b regime: wide interconnect, busy shared access
	// line at peak (ρ→0.85 on 400 Mbps) clips high tiers ~20-30%.
	n := buildFlowNet(t, 100000, 0.1, 0.5)
	peak := n.model.BulkFlow(n.path, minuteAtLocalHour(21), FlowOpts{TierMbps: 105}, nil)
	off := n.model.BulkFlow(n.path, minuteAtLocalHour(5), FlowOpts{TierMbps: 105}, nil)
	if off.ThroughputMbps < 100 {
		t.Errorf("off-peak = %v, want ≈105", off.ThroughputMbps)
	}
	drop := 1 - peak.ThroughputMbps/off.ThroughputMbps
	if drop < 0.1 || drop > 0.8 {
		t.Errorf("peak dip = %.0f%%, want moderate (not collapse)", drop*100)
	}
	if peak.ThroughputMbps < 20 {
		t.Errorf("peak throughput = %v, busy (not congested) access should stay usable", peak.ThroughputMbps)
	}
	// A low-tier client on the same line is unaffected.
	lowPeak := n.model.BulkFlow(n.path, minuteAtLocalHour(21), FlowOpts{TierMbps: 25}, nil)
	if lowPeak.Kind != LimitAccessPlan {
		t.Errorf("low-tier peak limited by %v, want access plan", lowPeak.Kind)
	}
}

func TestBulkFlowWiFiCap(t *testing.T) {
	n := buildFlowNet(t, 10000, 0.1, 0.4)
	res := n.model.BulkFlow(n.path, minuteAtLocalHour(5), FlowOpts{TierMbps: 100, WiFiCapMbps: 30}, nil)
	if res.Kind != LimitHomeWiFi || math.Abs(res.ThroughputMbps-30) > 0.01 {
		t.Errorf("wifi-capped flow = %v (%v)", res.ThroughputMbps, res.Kind)
	}
}

func TestBulkFlowNoiseBounded(t *testing.T) {
	n := buildFlowNet(t, 10000, 0.1, 0.4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		res := n.model.BulkFlow(n.path, minuteAtLocalHour(5), FlowOpts{TierMbps: 50, NoiseSigma: 0.1}, rng)
		if res.ThroughputMbps > 50+1e-9 {
			t.Fatalf("noise pushed throughput above the shaped tier: %v", res.ThroughputMbps)
		}
		if res.ThroughputMbps < 20 {
			t.Fatalf("noise collapsed throughput: %v", res.ThroughputMbps)
		}
	}
}

func TestLinkUtilFollowsLocalTime(t *testing.T) {
	n := buildFlowNet(t, 1000, 0.2, 0.9)
	peak := n.model.LinkUtil(n.inter, minuteAtLocalHour(21))
	trough := n.model.LinkUtil(n.inter, minuteAtLocalHour(9))
	if math.Abs(peak-0.9) > 0.01 {
		t.Errorf("peak util = %v, want ≈0.9", peak)
	}
	if math.Abs(trough-0.2) > 0.01 {
		t.Errorf("trough util = %v, want ≈0.2", trough)
	}
}

func TestDiurnalThroughputShapeOverDay(t *testing.T) {
	// Sweep a full day on a congested pair: throughput at 20-23h local
	// must be the daily minimum.
	n := buildFlowNet(t, 2000, 0.45, 1.3)
	var series [24]float64
	for h := 0; h < 24; h++ {
		res := n.model.BulkFlow(n.path, minuteAtLocalHour(h), FlowOpts{TierMbps: 18}, nil)
		series[h] = res.ThroughputMbps
	}
	minH := 0
	for h, v := range series {
		if v < series[minH] {
			minH = h
		}
	}
	if minH < 18 && minH != 0 {
		t.Errorf("daily throughput minimum at hour %d, want evening", minH)
	}
}

func BenchmarkBulkFlow(b *testing.B) {
	n := buildFlowNet(b, 2000, 0.45, 1.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.model.BulkFlow(n.path, i%1440, FlowOpts{TierMbps: 50}, nil)
	}
}

func TestPartialThroughput(t *testing.T) {
	// A full transfer reports the full rate; a cut at fraction f of the
	// transfer reports strictly less (the denominator stays the full
	// duration), monotonically in f, and never negative.
	if got := PartialThroughput(100, 1); got < 99.9 {
		t.Errorf("full transfer reports %v, want ~100", got)
	}
	prev := -1.0
	for f := 0.0; f <= 1.0; f += 0.05 {
		got := PartialThroughput(100, f)
		if got < 0 || got > 100 {
			t.Fatalf("PartialThroughput(100, %v) = %v out of [0, 100]", f, got)
		}
		if got < prev {
			t.Fatalf("PartialThroughput not monotone at f=%v", f)
		}
		prev = got
	}
	// A mid-transfer cut biases the estimate low: exactly the partial-
	// snapshot division artifact degradation-aware consumers must not
	// ingest.
	if got := PartialThroughput(100, 0.5); got >= 50 {
		t.Errorf("half transfer reports %v, want < 50 (ramp loss)", got)
	}
}
