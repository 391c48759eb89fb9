package ndt

import (
	"math/rand"
	"sync"
	"testing"

	"throughputlab/internal/topogen"
)

// world is the package's shared small world, generated on first use.
var world = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

func TestRunProducesPlausibleRecord(t *testing.T) {
	r := NewRunner(world())
	client, ok := world().NewClient("Comcast", "nyc")
	if !ok {
		t.Fatal("no client")
	}
	server := world().MLabServers()[0]
	rng := rand.New(rand.NewSource(1))
	test, err := r.Run(7, client, "Comcast", 50, 0, server, 300, 99, rng)
	if err != nil {
		t.Fatal(err)
	}
	if test.ID != 7 || test.ClientISP != "Comcast" || test.ClientAddr != client.Addr {
		t.Errorf("identity fields wrong: %+v", test)
	}
	if test.DownMbps <= 0 || test.DownMbps > 50 {
		t.Errorf("down %v outside (0, tier]", test.DownMbps)
	}
	if test.UpMbps <= 0 || test.UpMbps > 5.01 {
		t.Errorf("up %v outside (0, tier/10]", test.UpMbps)
	}
	if test.RTTms <= 0 {
		t.Error("non-positive RTT")
	}
	if test.RetransRate < 0 || test.RetransRate > 1 {
		t.Errorf("retrans rate %v", test.RetransRate)
	}
	if len(test.TruthASPath) < 2 {
		t.Error("AS path missing")
	}
	if len(test.TruthInterLinks) == 0 {
		t.Error("server->client path should cross interdomain links")
	}
	if test.ServerSite == "" || test.ServerNet == "" {
		t.Error("server labels missing")
	}
}

func TestWiFiCapRespected(t *testing.T) {
	r := NewRunner(world())
	r.NoiseSigma = 0
	client, _ := world().NewClient("Comcast", "nyc")
	server := world().MLabServers()[0]
	test, err := r.Run(1, client, "Comcast", 105, 20, server, 600, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if test.DownMbps > 20.01 {
		t.Errorf("wifi cap 20 exceeded: %v", test.DownMbps)
	}
	if test.TruthKind.String() != "home-wifi" {
		t.Errorf("truth kind = %v, want home-wifi", test.TruthKind)
	}
}

func TestSiteOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ndt-atl01.gtt-2", "atl01.gtt"},
		{"ndt-nyc01.level3-1", "nyc01.level3"},
		{"odd", "odd"},
	}
	for _, c := range cases {
		if got := siteOf(c.in); got != c.want {
			t.Errorf("siteOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWeb100ConsistentWithHeadlineNumbers(t *testing.T) {
	r := NewRunner(world())
	r.NoiseSigma = 0
	client, _ := world().NewClient("Comcast", "chi")
	server := world().MLabServers()[0]
	test, err := r.Run(3, client, "Comcast", 50, 0, server, 300, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := test.Web100
	if d := w.ThroughputMbps() - test.DownMbps; d > 0.5 || d < -0.5 {
		t.Errorf("web100 throughput %.2f vs test %.2f", w.ThroughputMbps(), test.DownMbps)
	}
	if w.MinRTTms != test.RTTMinMs || w.SmoothedRTTms != test.RTTms {
		t.Error("web100 RTTs disagree with test record")
	}
	if rr := w.RetransRate(); rr > test.RetransRate*2+1e-3 {
		t.Errorf("web100 retrans %.5f vs test %.5f", rr, test.RetransRate)
	}
}

func TestTestTruncate(t *testing.T) {
	w := topogen.MustGenerate(topogen.SmallConfig())
	r := NewRunner(w)
	h, ok := w.NewClient("Comcast", "nyc")
	if !ok {
		t.Fatal("no client")
	}
	srv := w.MLabServers()[0]
	test, err := r.Run(1, h, "Comcast", 50, 0, srv, 600, 7, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	full := test.DownMbps
	test.Truncate(0.5)
	if !test.Truncated {
		t.Error("Truncate did not mark the record")
	}
	if test.DownMbps >= full {
		t.Errorf("truncated headline %v not below full %v", test.DownMbps, full)
	}
	if test.Web100.Complete() {
		t.Error("truncated test still carries a complete web100 snapshot")
	}
}

// TestLocalHourMatchesWorld: the static metro table a test's local hour
// reads gives the generated world's own metro local hour, for every
// metro across the campaign's day boundaries, and an unknown metro
// reads as UTC.
func TestLocalHourMatchesWorld(t *testing.T) {
	if len(world().Topo.Metros) == 0 {
		t.Fatal("world has no metros")
	}
	for _, m := range world().Topo.Metros {
		for _, minute := range []int{0, 59, 60, 299, 300, 1439, 1440, 28*1440 - 1} {
			got := (&Test{ClientMetro: m.Code, StartMinute: minute}).LocalHour()
			if want := m.LocalHour(minute); got != want {
				t.Errorf("%s at minute %d: LocalHour = %v, world says %v", m.Code, minute, got, want)
			}
		}
	}
	if got := (&Test{ClientMetro: "nosuch", StartMinute: 150}).LocalHour(); got != 2.5 {
		t.Errorf("unknown metro: LocalHour = %v, want UTC 2.5", got)
	}
}
