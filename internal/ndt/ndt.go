// Package ndt models the Network Diagnostic Test: a short bulk TCP
// transfer in each direction between a client and an M-Lab server,
// logging throughput, flow RTT and retransmission rate (§2.1). Each
// simulated test also records the ground-truth bottleneck so that
// inference quality can be scored — real NDT has no such field, and
// that gap is much of what the paper is about.
package ndt

import (
	"math/rand"

	"throughputlab/internal/datasets"
	"throughputlab/internal/geo"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/netsim"
	"throughputlab/internal/routing"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/web100"
)

// ndtDurationSec is NDT's per-direction transfer length.
const ndtDurationSec = 10

// Test is one NDT measurement record.
type Test struct {
	ID int

	// Client side (addresses are what the platform logs; ISP/metro are
	// ground-truth labels used only for scoring and stratified
	// reporting).
	ClientAddr  netaddr.Addr
	ClientASN   topology.ASN
	ClientISP   string
	ClientMetro string
	// TierMbps and WiFiCapMbps are ground truth the platform cannot see
	// (§6.1: service tier and home-network state are opaque).
	TierMbps    float64
	WiFiCapMbps float64

	// Server side.
	ServerAddr  netaddr.Addr
	ServerASN   topology.ASN
	ServerSite  string // e.g. "atl01.gtt"
	ServerNet   string // hosting network name, e.g. "GTT"
	ServerMetro string

	// StartMinute is the simulation time (minutes since month start,
	// UTC).
	StartMinute int
	// FlowEntropy identifies the TCP flow for ECMP purposes.
	FlowEntropy uint32

	// Measured values.
	DownMbps float64
	UpMbps   float64
	// RTTms is the mean flow RTT over the transfer (includes the flow's
	// own standing queue); RTTMinMs is the minimum RTT, seen by the
	// first packets before any self-induced queueing. NDT logs both,
	// and their ratio is the input to TCP congestion signatures [37].
	RTTms       float64
	RTTMinMs    float64
	RetransRate float64
	// Web100 is the server-side TCP counter snapshot for the download
	// direction (§2.1), synthesized consistently with the fields above.
	Web100 web100.Snapshot
	// Truncated marks a test cut off mid-transfer by the fault layer:
	// DownMbps is the partial-snapshot estimate and Web100 is
	// incomplete. Degradation-aware consumers (matching, signatures,
	// the report) exclude such records instead of letting them skew
	// aggregates. Clean collection never sets it.
	Truncated bool

	// Ground truth for scoring (not visible to inference).
	TruthKind       netsim.BottleneckKind
	TruthSaturated  bool
	TruthBottleneck topology.LinkID // 0 when bottleneck is not a link
	TruthInterLinks []topology.LinkID
	TruthASPath     []topology.ASN
}

// metros indexes the static metro table by code.
var metros = func() map[string]geo.Metro {
	m := map[string]geo.Metro{}
	for _, metro := range datasets.USMetros() {
		m[metro.Code] = metro
	}
	return m
}()

// LocalHour returns the client-local hour-of-day [0,24) the test
// started in. It reads the static metro table, not a world: persisted
// corpora carry metro codes, not geometry, and the generator sources
// its metros from the same table. An unknown metro reads as UTC rather
// than panicking on foreign data.
func (t *Test) LocalHour() float64 {
	return metros[t.ClientMetro].LocalHour(t.StartMinute)
}

// Runner executes NDT tests against a generated world.
type Runner struct {
	w *topogen.World
	// NoiseSigma is per-test multiplicative measurement noise.
	NoiseSigma float64
}

// NewRunner builds a Runner with default noise.
func NewRunner(w *topogen.World) *Runner {
	return &Runner{w: w, NoiseSigma: 0.10}
}

// Run performs one NDT test from client to server at the given minute.
func (r *Runner) Run(id int, client routing.Endpoint, clientISP string, tierMbps, wifiCap float64,
	server topogen.Host, minute int, entropy uint32, rng *rand.Rand) (*Test, error) {

	key := routing.FlowKey(server.Endpoint.Addr, client.Addr, entropy)
	down, err := r.w.Resolver.Resolve(server.Endpoint, client, key)
	if err != nil {
		return nil, err
	}
	upKey := routing.FlowKey(client.Addr, server.Endpoint.Addr, entropy)
	up, err := r.w.Resolver.Resolve(client, server.Endpoint, upKey)
	if err != nil {
		return nil, err
	}

	dres := r.w.Model.BulkFlow(&down, minute, netsim.FlowOpts{
		TierMbps: tierMbps, WiFiCapMbps: wifiCap, NoiseSigma: r.NoiseSigma,
	}, rng)
	// Upstream plans are typically ~10x slower; Wi-Fi caps apply too.
	ures := r.w.Model.BulkFlow(&up, minute, netsim.FlowOpts{
		TierMbps: tierMbps / 10, WiFiCapMbps: wifiCap, NoiseSigma: r.NoiseSigma,
	}, rng)

	test := &Test{
		ID:          id,
		ClientAddr:  client.Addr,
		ClientASN:   client.ASN,
		ClientISP:   clientISP,
		ClientMetro: client.Metro,
		TierMbps:    tierMbps,
		WiFiCapMbps: wifiCap,

		ServerAddr:  server.Endpoint.Addr,
		ServerASN:   server.Endpoint.ASN,
		ServerSite:  siteOf(server.Name),
		ServerNet:   server.Network,
		ServerMetro: server.Endpoint.Metro,

		StartMinute: minute,
		FlowEntropy: entropy,

		DownMbps:    dres.ThroughputMbps,
		UpMbps:      ures.ThroughputMbps,
		RTTms:       dres.RTTms,
		RTTMinMs:    dres.StartRTTms,
		RetransRate: dres.LossRate,
		Web100:      web100.Synthesize(dres, ndtDurationSec, rng),

		TruthKind:      dres.Kind,
		TruthSaturated: dres.BottleneckSaturated,
		TruthASPath:    down.ASPath,
	}
	if dres.Bottleneck != nil {
		test.TruthBottleneck = dres.Bottleneck.ID
	}
	// Collect interdomain link IDs directly (counting first) rather
	// than materializing the *Link slice InterdomainLinks would build.
	n := 0
	for _, l := range down.Links {
		if l.Kind == topology.LinkInterdomain {
			n++
		}
	}
	if n > 0 {
		test.TruthInterLinks = make([]topology.LinkID, 0, n)
		for _, l := range down.Links {
			if l.Kind == topology.LinkInterdomain {
				test.TruthInterLinks = append(test.TruthInterLinks, l.ID)
			}
		}
	}
	return test, nil
}

// Truncate rewrites the test as the record a mid-transfer cut leaves
// behind after frac of the transfer: the headline throughput becomes
// the partial-snapshot estimate and the web100 counters cover only the
// delivered prefix (Web100.Complete turns false).
func (t *Test) Truncate(frac float64) {
	t.Truncated = true
	t.DownMbps = netsim.PartialThroughput(t.DownMbps, frac)
	t.Web100.Truncate(frac)
}

// siteOf recovers the site name from a server name like
// "ndt-atl01.gtt-2".
func siteOf(serverName string) string {
	const prefix = "ndt-"
	s := serverName
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		s = s[len(prefix):]
	}
	// Strip the trailing "-<n>".
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '-' {
			return s[:i]
		}
	}
	return s
}
