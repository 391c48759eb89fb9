// Package netsim is the fluid network model: every link carries a
// diurnal background load, and a bulk TCP flow (an NDT test) over a
// resolved path achieves the minimum of its access-plan rate, its home
// Wi-Fi ceiling, the tightest link's available rate, and the
// Mathis/Padhye RTT-loss cap [33]. Saturated links additionally inflate
// RTT (bufferbloat) and loss, which is what drives peak-hour throughput
// below 1 Mbps for clients behind a congested interconnection while
// leaving the same clients fast off-peak (Figure 5a); busy-but-
// unsaturated links produce the shallower 20–30% diurnal dip of
// Figure 5b.
package netsim

import (
	"math"
	"math/rand"

	"throughputlab/internal/geo"
	"throughputlab/internal/routing"
	"throughputlab/internal/topology"
)

// DiurnalShape maps local hour [0,24) to load fraction [0,1]: the
// trough sits in the early morning and the peak around 21:00 local,
// matching the diurnal demand pattern the paper's analyses key on.
func DiurnalShape(localHour float64) float64 {
	s := 0.5 + float64(0.5*math.Cos(2*math.Pi*(localHour-21)/24))
	// Sharpen slightly so evening peak hours stand out.
	return math.Pow(s, 1.3)
}

// Model evaluates link state and flow throughput over a topology.
type Model struct {
	topo *topology.Topology
	rv   *routing.Resolver
	// linkMetro caches each link's metro by dense link ID, replacing a
	// string-keyed map lookup on every utilization evaluation.
	linkMetro []geo.Metro
}

// New builds a Model.
func New(t *topology.Topology, rv *routing.Resolver) *Model {
	m := &Model{topo: t, rv: rv}
	maxID := topology.LinkID(-1)
	for _, l := range t.Links() {
		if l.ID > maxID {
			maxID = l.ID
		}
	}
	m.linkMetro = make([]geo.Metro, maxID+1)
	for _, l := range t.Links() {
		m.linkMetro[l.ID] = t.MustMetro(l.Metro)
	}
	return m
}

// metroOf returns the link's metro from the dense cache, falling back
// to the topology for links the model was not built over (tests that
// synthesize links by hand).
func (m *Model) metroOf(l *topology.Link) geo.Metro {
	if int(l.ID) < len(m.linkMetro) && m.linkMetro[l.ID].Code == l.Metro {
		return m.linkMetro[l.ID]
	}
	return m.topo.MustMetro(l.Metro)
}

// LinkMetro returns the metro whose local time drives the link's
// diurnal load.
func (m *Model) LinkMetro(l *topology.Link) geo.Metro { return m.metroOf(l) }

// LinkUtil returns the background demand/capacity ratio ρ of the link
// at the given simulation minute (values above 1 mean offered load
// exceeds capacity at that hour).
func (m *Model) LinkUtil(l *topology.Link, minute int) float64 {
	return utilAt(l, DiurnalShape(m.metroOf(l).LocalHour(minute)))
}

// utilAt is the link's ρ at a given diurnal shape value.
func utilAt(l *topology.Link, shape float64) float64 {
	return l.BaseUtil + float64((l.PeakUtil-l.BaseUtil)*shape)
}

// shapeMemo caches DiurnalShape per UTC offset within one flow
// evaluation: every link on a path is evaluated at the same minute, so
// links sharing a timezone share the shape value exactly. Offsets
// outside the table (|off| > 13) fall through to a direct computation.
type shapeMemo struct {
	set [28]bool
	v   [28]float64
}

func (s *shapeMemo) at(metro geo.Metro, minute int) float64 {
	i := metro.UTCOffset + 13
	if i < 0 || i >= len(s.v) {
		return DiurnalShape(metro.LocalHour(minute))
	}
	if !s.set[i] {
		s.v[i] = DiurnalShape(metro.LocalHour(minute))
		s.set[i] = true
	}
	return s.v[i]
}

// perFlowShareMbps is the rate one more bulk flow achieves on the link
// given its current load. Below saturation the flow takes the larger of
// the residual capacity C·(1-ρ) and its TCP-fair share against the
// active flows; past saturation flows pile up and the share collapses.
// The function is continuous at ρ = 1.
func perFlowShareMbps(capMbps, rho float64) float64 {
	// satShare is the typical per-flow rate right at saturation on a
	// consumer-facing link.
	const satShare = 4.0
	switch {
	case rho <= 0:
		return capMbps
	case rho < 1:
		return math.Max(capMbps*(1-rho), satShare/math.Max(rho, 0.5))
	default:
		return satShare / (1 + float64(6*(rho-1)))
	}
}

func lossAt(rho float64) float64 {
	switch {
	case rho < 0.7:
		return 1e-6
	case rho < 1:
		x := (rho - 0.7) / 0.3
		return 1e-6 + float64(2e-4*x*x)
	default:
		return 0.003 + float64(0.08*(rho-1))
	}
}

// LinkQueueMs returns the queueing delay the link adds to the one-way
// path at the given minute (bufferbloat under overload).
func (m *Model) LinkQueueMs(l *topology.Link, minute int) float64 {
	return queueMsAt(m.LinkUtil(l, minute))
}

// LinkQueueMsAtShape is LinkQueueMs for a caller that already holds
// DiurnalShape of the link metro's local hour: equal to LinkQueueMs at
// that minute, so a survey probing many links of one time zone
// evaluates the shape once per minute.
func LinkQueueMsAtShape(l *topology.Link, shape float64) float64 {
	return queueMsAt(utilAt(l, shape))
}

func queueMsAt(rho float64) float64 {
	switch {
	case rho < 0.5:
		return 0
	case rho < 1:
		return float64(15*(rho-0.5)) / 0.5
	default:
		return 80 + float64(40*(rho-1))
	}
}

// FlowOpts carries the client-side constraints of one NDT test.
type FlowOpts struct {
	// TierMbps is the client's provisioned service-plan rate (0 = no
	// plan shaping, e.g. server-to-server tests).
	TierMbps float64
	// WiFiCapMbps caps throughput when the home wireless network is the
	// bottleneck (0 = wired/no cap). §6.1 "home network interference".
	WiFiCapMbps float64
	// NoiseSigma is the standard deviation of multiplicative lognormal
	// measurement noise (0 disables; typical 0.10).
	NoiseSigma float64
}

// BottleneckKind classifies what limited a flow — the ground truth the
// paper's §6.2 wishes speed tests could report.
type BottleneckKind int

const (
	// LimitAccessPlan: the service tier was the limit (healthy case).
	LimitAccessPlan BottleneckKind = iota
	// LimitHomeWiFi: the home wireless network was the limit.
	LimitHomeWiFi
	// LimitLink: a network link's available rate was the limit.
	LimitLink
	// LimitLatency: the Mathis RTT/loss cap was the limit.
	LimitLatency
)

// String implements fmt.Stringer.
func (k BottleneckKind) String() string {
	switch k {
	case LimitAccessPlan:
		return "access-plan"
	case LimitHomeWiFi:
		return "home-wifi"
	case LimitLink:
		return "link"
	case LimitLatency:
		return "latency"
	}
	return "unknown"
}

// FlowResult is the outcome of one simulated bulk transfer.
type FlowResult struct {
	ThroughputMbps float64
	// RTTms is the steady-state flow RTT including queueing delay on
	// loaded links AND the flow's self-induced buffering — the "flow
	// RTT" metric of the M-Lab reports.
	RTTms float64
	// BaseRTTms is the propagation-only RTT (no queues anywhere).
	BaseRTTms float64
	// StartRTTms is the RTT the flow's first packets see: propagation
	// plus queueing already present from background traffic, before the
	// flow has built any standing queue of its own. The gap between
	// StartRTTms and RTTms is the core discriminator of TCP congestion
	// signatures [37]: a flow that is itself the bottleneck-filler
	// starts with a low RTT and drives it up; a flow arriving at an
	// already-congested link sees a high RTT from the first packet.
	StartRTTms float64
	// SelfQueueMs is the flow's own standing-queue contribution
	// (RTTms - StartRTTms).
	SelfQueueMs float64
	// LossRate is the end-to-end loss probability (≈ NDT's
	// retransmission rate).
	LossRate float64
	// Bottleneck is the limiting link when Kind == LimitLink, or the
	// most-loaded link when the path crossed a saturated one (the
	// latency cap usually binds there via queueing and loss).
	Bottleneck *topology.Link
	// BottleneckSaturated reports whether ANY link on the path had
	// offered background load exceeding capacity (ρ ≥ 1): the "flow
	// arrived at an already congested link" state of §6.2 / TCP
	// congestion signatures [37]. On such paths the throughput limit
	// typically manifests as the RTT/loss cap, so this flag is
	// independent of Kind.
	BottleneckSaturated bool
	Kind                BottleneckKind
}

const (
	mssBits     = 1460 * 8
	mathisConst = 1.22
)

// PartialThroughput models the headline number a mid-transfer
// truncation leaves in a test record: the pipeline divides the bytes
// acknowledged before the cut by the NOMINAL test duration (the final
// duration field is among the counters a partial snapshot is missing),
// so the reported rate shrinks by the completed fraction — and a cut
// that lands inside the slow-start ramp (the first ~10% of the test)
// delivers proportionally less than frac of the bytes on top.
func PartialThroughput(rateMbps, frac float64) float64 {
	if frac >= 1 {
		return rateMbps
	}
	if frac <= 0 {
		return 0
	}
	const ramp = 0.1
	bytesFrac := frac - ramp/2
	if frac < ramp {
		// Entirely inside the ramp: bytes grow quadratically from 0.
		bytesFrac = frac * frac / (2 * ramp)
	}
	return rateMbps * bytesFrac
}

// MathisCapMbps is the throughput ceiling MSS·C/(RTT·√p) [33].
func MathisCapMbps(rttMs, loss float64) float64 {
	if rttMs <= 0 {
		return math.Inf(1)
	}
	if loss < 1e-7 {
		loss = 1e-7
	}
	return mathisConst * mssBits / (rttMs / 1000 * math.Sqrt(loss)) / 1e6
}

// BulkFlow evaluates one bulk TCP transfer along the path at the given
// simulation minute. rng supplies measurement noise and may be nil when
// opts.NoiseSigma is 0.
func (m *Model) BulkFlow(p *routing.Path, minute int, opts FlowOpts, rng *rand.Rand) FlowResult {
	res := FlowResult{Kind: LimitAccessPlan}

	// Scan links: tightest available rate, total loss, total queue.
	avail := math.Inf(1)
	loss := 0.0
	queueMs := 0.0
	maxRho := 0.0
	var bottleneck, hottest *topology.Link
	var shapes shapeMemo
	for _, l := range p.Links {
		rho := utilAt(l, shapes.at(m.metroOf(l), minute))
		a := perFlowShareMbps(l.CapacityMbps, rho)
		if a < avail {
			avail, bottleneck = a, l
		}
		if rho > maxRho {
			maxRho, hottest = rho, l
		}
		loss += lossAt(rho)
		queueMs += queueMsAt(rho)
	}
	base := m.rv.RTTms(p)
	startRTT := base + queueMs
	res.BaseRTTms = base
	res.StartRTTms = startRTT
	res.LossRate = loss

	tput := avail
	kind := BottleneckKind(LimitLink)
	if cap := MathisCapMbps(startRTT, loss); cap < tput {
		tput, kind = cap, LimitLatency
	}
	if opts.TierMbps > 0 && opts.TierMbps < tput {
		tput, kind = opts.TierMbps, LimitAccessPlan
	}
	if opts.WiFiCapMbps > 0 && opts.WiFiCapMbps < tput {
		tput, kind = opts.WiFiCapMbps, LimitHomeWiFi
	}
	if opts.NoiseSigma > 0 && rng != nil {
		tput *= math.Exp(rng.NormFloat64() * opts.NoiseSigma)
		if opts.TierMbps > 0 && tput > opts.TierMbps {
			tput = opts.TierMbps // plans shape hard; noise cannot exceed them
		}
	}
	res.ThroughputMbps = tput
	res.Kind = kind

	// Self-induced standing queue: when the flow itself saturates its
	// bottleneck (plan shaper, Wi-Fi, or an otherwise-idle link), it
	// fills the buffer in front of that bottleneck — roughly one
	// home-router buffer (~128 KB) draining at the achieved rate. A
	// flow squeezed by an already-saturated upstream link never builds
	// a meaningful queue of its own: the buffer is already full of
	// other people's traffic.
	saturatedUpstream := maxRho >= 1
	switch {
	case saturatedUpstream || kind == LimitLatency:
		res.SelfQueueMs = 1.5
	default:
		const bufferKbit = 128 * 8
		res.SelfQueueMs = math.Min(80, bufferKbit/math.Max(tput, 1))
	}
	res.RTTms = startRTT + res.SelfQueueMs
	res.BottleneckSaturated = maxRho >= 1
	switch {
	case kind == LimitLink:
		res.Bottleneck = bottleneck
	case res.BottleneckSaturated:
		res.Bottleneck = hottest
	}
	return res
}
