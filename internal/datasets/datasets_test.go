package datasets

import (
	"testing"

	"throughputlab/internal/topology"
)

func TestUSMetrosWellFormed(t *testing.T) {
	ms := USMetros()
	if len(ms) < 15 {
		t.Fatalf("only %d metros", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if m.Code == "" || m.Name == "" {
			t.Errorf("metro missing code/name: %+v", m)
		}
		if seen[m.Code] {
			t.Errorf("duplicate metro code %q", m.Code)
		}
		seen[m.Code] = true
		if m.Weight <= 0 {
			t.Errorf("metro %s has non-positive weight", m.Code)
		}
		if m.Lat < 20 || m.Lat > 50 || m.Lon > -60 || m.Lon < -130 {
			t.Errorf("metro %s has implausible US coordinates (%v, %v)", m.Code, m.Lat, m.Lon)
		}
		if m.UTCOffset < -8 || m.UTCOffset > -5 {
			t.Errorf("metro %s has non-US UTC offset %d", m.Code, m.UTCOffset)
		}
	}
}

func TestTransitsWellFormed(t *testing.T) {
	metroSet := map[string]bool{}
	for _, m := range USMetros() {
		metroSet[m.Code] = true
	}
	asns := map[topology.ASN]bool{}
	mlabHosts := 0
	for _, tr := range Transits() {
		if tr.Name == "" || tr.ASN == 0 {
			t.Errorf("transit missing name/ASN: %+v", tr)
		}
		if asns[tr.ASN] {
			t.Errorf("duplicate transit ASN %d", tr.ASN)
		}
		asns[tr.ASN] = true
		for _, m := range tr.MLabMetros {
			if !metroSet[m] {
				t.Errorf("transit %s M-Lab metro %q unknown", tr.Name, m)
			}
		}
		if len(tr.MLabMetros) > 0 {
			mlabHosts++
		}
	}
	if mlabHosts < 4 {
		t.Errorf("only %d M-Lab host networks; need several for Figure 1 diversity", mlabHosts)
	}
}

func TestAccessISPsWellFormed(t *testing.T) {
	metroSet := map[string]bool{}
	for _, m := range USMetros() {
		metroSet[m.Code] = true
	}
	transitNames := map[string]bool{}
	for _, tr := range Transits() {
		transitNames[tr.Name] = true
	}
	ispNames := map[string]bool{}
	for _, p := range AccessISPs() {
		ispNames[p.Name] = true
	}

	asns := map[topology.ASN]bool{}
	fig1 := 0
	vps := 0
	for _, p := range AccessISPs() {
		if p.Name == "" || p.BackboneASN == 0 || p.OrgName == "" {
			t.Errorf("ISP missing identity: %+v", p.Name)
		}
		for _, a := range append([]topology.ASN{p.BackboneASN}, p.SiblingASNs...) {
			if asns[a] {
				t.Errorf("ASN %d used twice", a)
			}
			asns[a] = true
		}
		if len(p.Metros) == 0 {
			t.Errorf("%s has no metros", p.Name)
		}
		for _, m := range p.Metros {
			if !metroSet[m] {
				t.Errorf("%s metro %q unknown", p.Name, m)
			}
		}
		for _, tr := range append(append([]string{}, p.TransitPeers...), p.TransitProviders...) {
			if !transitNames[tr] {
				t.Errorf("%s references unknown transit %q", p.Name, tr)
			}
		}
		for _, ap := range p.AccessPeers {
			if !ispNames[ap] {
				t.Errorf("%s references unknown access peer %q", p.Name, ap)
			}
		}
		if len(p.ArkVPMetros) != len(p.ArkVPLabels) {
			t.Errorf("%s VP metros/labels mismatched", p.Name)
		}
		for _, m := range p.ArkVPMetros {
			if !metroSet[m] {
				t.Errorf("%s VP metro %q unknown", p.Name, m)
			}
			vps++
		}
		if len(p.ArkVPMetros) > 0 && p.FigureLabel == "" {
			t.Errorf("%s has VPs but no figure label", p.Name)
		}
		if p.InFig1 {
			fig1++
		}
		var w float64
		for _, tier := range p.Tiers {
			if tier.DownMbps <= 0 || tier.Weight <= 0 {
				t.Errorf("%s has invalid tier %+v", p.Name, tier)
			}
			w += tier.Weight
		}
		if w < 0.99 || w > 1.01 {
			t.Errorf("%s tier weights sum to %v, want 1", p.Name, w)
		}
		if p.WiFiDegradedFrac < 0 || p.WiFiDegradedFrac > 1 {
			t.Errorf("%s WiFiDegradedFrac out of range", p.Name)
		}
	}
	if fig1 != 9 {
		t.Errorf("Figure 1 covers %d ISPs, want 9", fig1)
	}
	// The paper's §5.1: 16 Ark VPs in 9 access ISPs.
	if vps != 16 {
		t.Errorf("%d Ark VPs, want 16", vps)
	}
}

func TestArkVPsMatchPaperRoster(t *testing.T) {
	// §5.1: 5 in Comcast, 3 in TWC, 2 in Cox, one each in Verizon,
	// CenturyLink, Sonic, RCN, Frontier, AT&T.
	want := map[string]int{
		"Comcast": 5, "Time Warner Cable": 3, "Cox": 2,
		"Verizon": 1, "CenturyLink": 1, "Sonic": 1, "RCN": 1,
		"Frontier": 1, "AT&T": 1,
	}
	got := map[string]int{}
	for _, p := range AccessISPs() {
		if len(p.ArkVPMetros) > 0 {
			got[p.Name] = len(p.ArkVPMetros)
		}
	}
	for isp, n := range want {
		if got[isp] != n {
			t.Errorf("%s has %d VPs, want %d", isp, got[isp], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("VPs in %d ISPs, want %d", len(got), len(want))
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1()
	if len(tbl) != 12 {
		t.Fatalf("Table 1 has %d rows, want 12", len(tbl))
	}
	if tbl[0].ISP != "Comcast" || tbl[0].Subscribers != 23329000 {
		t.Errorf("row 0 = %+v", tbl[0])
	}
	if tbl[11].ISP != "Mediacom" || tbl[11].Subscribers != 1085000 {
		t.Errorf("row 11 = %+v", tbl[11])
	}
	for i := 1; i < len(tbl); i++ {
		if tbl[i].Subscribers > tbl[i-1].Subscribers {
			t.Errorf("Table 1 not sorted at row %d", i)
		}
	}
	for _, row := range tbl {
		if row.Subscribers < 1000000 {
			t.Errorf("%s below the one-million cut", row.ISP)
		}
	}
	// Every Table 1 ISP has a profile with matching subscriber count.
	profiles := map[string]AccessProfile{}
	for _, p := range AccessISPs() {
		profiles[p.Name] = p
	}
	for _, row := range tbl {
		p, ok := profiles[row.ISP]
		if !ok {
			t.Errorf("Table 1 ISP %s has no profile", row.ISP)
			continue
		}
		if int(p.SubscribersM*1e6+0.5) != row.Subscribers {
			t.Errorf("%s profile subscribers %.4fM != table %d", row.ISP, p.SubscribersM, row.Subscribers)
		}
	}
}

func TestFig1PeeringDiversity(t *testing.T) {
	// The Figure 1 mechanism requires the top-5 ISPs to be adjacent to
	// most M-Lab host networks, and Charter/Cox/Frontier/Windstream to
	// miss most of them.
	hosts := map[string]bool{}
	for _, tr := range Transits() {
		if len(tr.MLabMetros) > 0 {
			hosts[tr.Name] = true
		}
	}
	adjacency := func(p AccessProfile) int {
		n := 0
		for _, tr := range append(append([]string{}, p.TransitPeers...), p.TransitProviders...) {
			if hosts[tr] {
				n++
			}
		}
		return n
	}
	byName := map[string]AccessProfile{}
	for _, p := range AccessISPs() {
		byName[p.Name] = p
	}
	for _, big := range []string{"Comcast", "AT&T", "Verizon", "CenturyLink"} {
		if adjacency(byName[big]) < 4 {
			t.Errorf("%s adjacent to only %d M-Lab hosts", big, adjacency(byName[big]))
		}
	}
	for _, small := range []string{"Charter", "Cox", "Windstream"} {
		if adjacency(byName[small]) > 2 {
			t.Errorf("%s adjacent to %d M-Lab hosts, want ≤2", small, adjacency(byName[small]))
		}
	}
}

func TestContentNetworks(t *testing.T) {
	metroSet := map[string]bool{}
	for _, m := range USMetros() {
		metroSet[m.Code] = true
	}
	asns := map[topology.ASN]bool{}
	names := map[string]bool{}
	for _, c := range ContentNetworks() {
		if c.Name == "" || c.ASN == 0 || len(c.Metros) == 0 {
			t.Errorf("bad content profile %+v", c)
		}
		if asns[c.ASN] || names[c.Name] {
			t.Errorf("duplicate content identity %s/%d", c.Name, c.ASN)
		}
		asns[c.ASN], names[c.Name] = true, true
		for _, m := range c.Metros {
			if !metroSet[m] {
				t.Errorf("content %s metro %q unknown", c.Name, m)
			}
		}
		if c.DomainShare <= 0 {
			t.Errorf("content %s has no domain share", c.Name)
		}
	}
	if len(ContentNetworks()) < 20 {
		t.Errorf("want ≥20 content networks, got %d", len(ContentNetworks()))
	}
}

func TestPopularDomainList(t *testing.T) {
	domains := PopularDomainList()
	if len(domains) < 100 {
		t.Fatalf("only %d domains", len(domains))
	}
	orgs := map[string]bool{}
	for _, c := range ContentNetworks() {
		orgs[c.Name] = true
	}
	names := map[string]bool{}
	hosted := 0
	for _, d := range domains {
		if names[d.Name] {
			t.Errorf("duplicate domain %q", d.Name)
		}
		names[d.Name] = true
		if d.ContentOrg == "" {
			hosted++
		} else if !orgs[d.ContentOrg] {
			t.Errorf("domain %s references unknown org %q", d.Name, d.ContentOrg)
		}
	}
	frac := float64(hosted) / float64(len(domains))
	if frac < 0.1 || frac > 0.4 {
		t.Errorf("hosted-domain fraction %.2f outside [0.1, 0.4]", frac)
	}
}

func TestIXPSites(t *testing.T) {
	metroSet := map[string]bool{}
	for _, m := range USMetros() {
		metroSet[m.Code] = true
	}
	for _, x := range IXPSites() {
		if !metroSet[x.Metro] {
			t.Errorf("IXP %s in unknown metro %q", x.Name, x.Metro)
		}
	}
	if len(IXPSites()) < 3 {
		t.Error("want ≥3 IXPs")
	}
}

func TestScaleConfigs(t *testing.T) {
	for _, sc := range []ScaleConfig{SmallScale(), DefaultScale(), MediumScale(), LargeScale(), XLargeScale()} {
		if sc.StubASes <= 0 || sc.RegionalISPs <= 0 || sc.ServersPerMLabSite <= 0 ||
			sc.SpeedtestStubServers < 0 {
			t.Errorf("invalid scale %+v", sc)
		}
		if sc.HostingFrac <= 0 || sc.HostingFrac >= 1 {
			t.Errorf("HostingFrac %v out of (0,1)", sc.HostingFrac)
		}
		// Regional ASNs run from 36000 and must stay below the content
		// tail at 39000.
		if sc.RegionalISPs >= 3000 {
			t.Errorf("RegionalISPs %d collides with the content tail", sc.RegionalISPs)
		}
	}
	if DefaultScale().StubASes <= SmallScale().StubASes {
		t.Error("default scale should exceed small scale")
	}
}
