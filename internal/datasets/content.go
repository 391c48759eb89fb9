package datasets

import "throughputlab/internal/topology"

// ContentProfile describes a content/CDN network serving popular web
// content (the destinations behind the Alexa-style target list, §5.1).
type ContentProfile struct {
	Name string
	ASN  topology.ASN
	// Metros with CDN replicas; DNS resolves domains to the replica
	// nearest the resolver.
	Metros []string
	// DomainShare is the relative share of popular domains served by
	// this network.
	DomainShare float64
	// SpeedtestServers hosted in this network (some CDNs host them).
	SpeedtestServers int
}

// ContentNetworks returns the content/CDN roster. Names of the largest
// real networks are kept recognizable; the tail is synthetic.
func ContentNetworks() []ContentProfile {
	wide := []string{"nyc", "lax", "chi", "dfw", "wdc", "atl", "sea", "mia", "sjc", "den"}
	mid := []string{"nyc", "lax", "chi", "dfw", "atl"}
	narrow := []string{"nyc", "sjc"}
	out := []ContentProfile{
		{Name: "SearchCo", ASN: 15169, Metros: wide, DomainShare: 16, SpeedtestServers: 2},
		{Name: "VideoFlix", ASN: 2906, Metros: wide, DomainShare: 6},
		{Name: "AkamCDN", ASN: 20940, Metros: wide, DomainShare: 14, SpeedtestServers: 1},
		{Name: "FaceNet", ASN: 32934, Metros: wide, DomainShare: 7},
		{Name: "RainforestCloud", ASN: 16509, Metros: wide, DomainShare: 12, SpeedtestServers: 2},
		{Name: "CloudShield", ASN: 13335, Metros: wide, DomainShare: 9, SpeedtestServers: 1},
		{Name: "FastEdge", ASN: 54113, Metros: mid, DomainShare: 5},
		{Name: "ChirpSocial", ASN: 13414, Metros: mid, DomainShare: 3},
		{Name: "FruitCo", ASN: 714, Metros: wide, DomainShare: 4},
		{Name: "RedmondCloud", ASN: 8075, Metros: wide, DomainShare: 6},
		{Name: "PortalCo", ASN: 10310, Metros: mid, DomainShare: 3},
		{Name: "LimeCDN", ASN: 22822, Metros: mid, DomainShare: 2},
		{Name: "EdgePost", ASN: 15133, Metros: mid, DomainShare: 2},
	}
	// Synthetic tail of smaller content networks.
	tailNames := []string{
		"NewsWire", "StreamBox", "AdGrid", "PhotoPile", "GameHub",
		"MapsNow", "ShopRail", "WikiVale", "TubeLine", "PinDeck", "BlogForge",
	}
	asn := topology.ASN(39000)
	for i, n := range tailNames {
		metros := narrow
		if i%3 == 0 {
			metros = mid
		}
		out = append(out, ContentProfile{
			Name: n, ASN: asn, Metros: metros, DomainShare: 1,
		})
		asn++
	}
	return out
}

// PopularDomains returns the synthetic stand-in for the Alexa US
// top-500 (§5.1): domain names with the network that serves each. A
// fraction of domains is served from hosting companies (stub networks)
// rather than content networks; the generator assigns those to concrete
// hosting ASes, which is how paths to popular content come to traverse
// access-ISP *customer* interconnections (Figure 4 discussion).
type PopularDomain struct {
	Name string
	// ContentOrg is the serving ContentProfile name, or "" when the
	// domain is hosted at a generic hosting company.
	ContentOrg string
}

// PopularDomainList builds a ~120-domain list: each content network
// gets domains in proportion to DomainShare, and hostedFrac of the
// total is assigned to hosting companies (ContentOrg == "").
func PopularDomainList() []PopularDomain {
	const total = 120
	const hostedFrac = 0.25
	nets := ContentNetworks()
	var shareSum float64
	for _, c := range nets {
		shareSum += c.DomainShare
	}
	var out []PopularDomain
	cdnTotal := int(float64(total) * (1 - hostedFrac))
	for _, c := range nets {
		n := int(float64(cdnTotal)*c.DomainShare/shareSum + 0.5)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, PopularDomain{
				Name:       domainName(c.Name, i),
				ContentOrg: c.Name,
			})
		}
	}
	for i := 0; len(out) < total; i++ {
		out = append(out, PopularDomain{Name: domainName("hosted", i)})
	}
	return out
}

func domainName(stem string, i int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	name := "www" + string(letters[i%len(letters)])
	if i >= len(letters) {
		name += string(letters[(i/len(letters))%len(letters)])
	}
	return name + "." + stem + ".example"
}

// IXPSite names an exchange point and its metro; the generator carves a
// peering-LAN prefix for each.
type IXPSite struct {
	Name  string
	Metro string
}

// IXPSites returns the synthetic exchange points.
func IXPSites() []IXPSite {
	return []IXPSite{
		{Name: "NYIX", Metro: "nyc"},
		{Name: "ChiIX", Metro: "chi"},
		{Name: "BayIX", Metro: "sjc"},
		{Name: "TexIX", Metro: "dfw"},
		{Name: "SoFloIX", Metro: "mia"},
	}
}

// ScaleConfig collects the generator's population knobs. DefaultScale
// yields ~2,000 ASes: every paper mechanism appears while the full
// pipeline stays fast (DESIGN.md §2 discusses the scaling).
type ScaleConfig struct {
	// StubASes is the number of stub edge networks (enterprises,
	// hosting companies, small ISPs buying transit).
	StubASes int
	// HostingFrac is the fraction of stubs that are hosting companies
	// (candidates to host Speedtest servers and hosted popular domains).
	HostingFrac float64
	// RegionalISPs is the number of mid-tier regional networks (peer at
	// IXPs, buy transit, host Speedtest servers).
	RegionalISPs int
	// SpeedtestStubServers is the number of Speedtest servers placed in
	// hosting/regional networks, beyond those pinned in profiles.
	SpeedtestStubServers int
	// ServersPerMLabSite is how many NDT servers each M-Lab site runs.
	ServersPerMLabSite int
	// CustomerScale multiplies each access ISP's CustomerTarget
	// (0 means 1.0), so larger worlds grow border sets proportionally.
	CustomerScale float64
}

// DefaultScale returns the standard scale used by experiments.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		StubASes:             1400,
		HostingFrac:          0.18,
		RegionalISPs:         50,
		SpeedtestStubServers: 260,
		ServersPerMLabSite:   3,
	}
}

// MediumScale returns the ~3k-AS configuration for users who want the
// full DESIGN.md scale (slower generation and campaigns).
func MediumScale() ScaleConfig {
	return ScaleConfig{
		StubASes:             2800,
		HostingFrac:          0.18,
		RegionalISPs:         90,
		SpeedtestStubServers: 420,
		ServersPerMLabSite:   4,
		CustomerScale:        2,
	}
}

// LargeScale returns the ~50k-AS configuration for internet-scale
// campaigns. Worlds this big are meant to be collected with the
// streaming corpus path: a materialized million-test corpus needs
// several GB. (BGP route trees are computed on demand at every scale.)
//
// RegionalISPs must stay below 3000 at every scale: regional ASNs are assigned from
// 36000 upward and must not collide with the content tail at 39000.
func LargeScale() ScaleConfig {
	return ScaleConfig{
		StubASes:             49000,
		HostingFrac:          0.18,
		RegionalISPs:         700,
		SpeedtestStubServers: 1200,
		ServersPerMLabSite:   4,
		CustomerScale:        4,
	}
}

// XLargeScale returns the ~75k-AS configuration used for the ≥1M-test
// streamed campaigns (the M-Lab-scale regime of §4.1); like LargeScale,
// it is meant for the streaming corpus path.
func XLargeScale() ScaleConfig {
	return ScaleConfig{
		StubASes:             74000,
		HostingFrac:          0.18,
		RegionalISPs:         900,
		SpeedtestStubServers: 1600,
		ServersPerMLabSite:   6,
		CustomerScale:        6,
	}
}

// SmallScale returns a reduced scale for unit tests and examples.
func SmallScale() ScaleConfig {
	return ScaleConfig{
		StubASes:             120,
		HostingFrac:          0.2,
		RegionalISPs:         10,
		SpeedtestStubServers: 30,
		ServersPerMLabSite:   1,
	}
}
