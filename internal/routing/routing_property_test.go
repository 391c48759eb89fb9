package routing

import (
	"testing"

	"throughputlab/internal/topology"
)

// TestPathsLoopFree: no resolved path visits a router twice.
func TestPathsLoopFree(t *testing.T) {
	n := buildTestNet(t)
	clients := []Endpoint{n.clientATL, n.clientNYC, n.clientLAX}
	for _, cli := range clients {
		for entropy := uint64(0); entropy < 32; entropy++ {
			for _, pair := range [][2]Endpoint{{n.server, cli}, {cli, n.server}} {
				p, err := n.rv.Resolve(pair[0], pair[1], entropy)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[topology.RouterID]bool{}
				for _, h := range p.Hops {
					if seen[h.Router.ID] {
						t.Fatalf("router %d visited twice: %v", h.Router.ID, hopNames(&p))
					}
					seen[h.Router.ID] = true
				}
			}
		}
	}
}

// TestLinksMatchHops: every non-first hop's InLink appears in Links,
// and interdomain links alternate with intra segments coherently:
// consecutive hops are endpoints of the connecting link.
func TestLinksMatchHops(t *testing.T) {
	n := buildTestNet(t)
	p, err := n.rv.Resolve(n.server, n.clientLAX, 5)
	if err != nil {
		t.Fatal(err)
	}
	inLinks := map[topology.LinkID]bool{}
	for _, h := range p.Hops[1:] {
		inLinks[h.InLink.ID] = true
		// The in-link must connect this router to the previous one.
		a, b := h.InLink.ASA(), h.InLink.ASB()
		if a != h.Router.AS && b != h.Router.AS {
			t.Fatalf("hop %s entered via link not touching its AS", h.Router.Name)
		}
	}
	for _, l := range p.Links {
		if l.Kind == topology.LinkAccessLine {
			continue
		}
		if !inLinks[l.ID] {
			t.Fatalf("link %d in Links but no hop entered through it", l.ID)
		}
	}
}

// TestASPathMatchesHopASes: the routers visited belong exactly to the
// ASes of the AS-level path, in order.
func TestASPathMatchesHopASes(t *testing.T) {
	n := buildTestNet(t)
	p, err := n.rv.Resolve(n.server, n.clientNYC, 9)
	if err != nil {
		t.Fatal(err)
	}
	var asSeq []topology.ASN
	for _, h := range p.Hops {
		if len(asSeq) == 0 || asSeq[len(asSeq)-1] != h.Router.AS {
			asSeq = append(asSeq, h.Router.AS)
		}
	}
	if len(asSeq) != len(p.ASPath) {
		t.Fatalf("hop AS sequence %v vs AS path %v", asSeq, p.ASPath)
	}
	for i := range asSeq {
		if asSeq[i] != p.ASPath[i] {
			t.Fatalf("hop AS sequence %v vs AS path %v", asSeq, p.ASPath)
		}
	}
}

// TestRTTSymmetry: base RTT is direction-independent for the same
// endpoints (propagation is symmetric; queueing asymmetry comes later
// in netsim).
func TestRTTSymmetry(t *testing.T) {
	n := buildTestNet(t)
	key := FlowKey(n.server.Addr, n.clientLAX.Addr, 1)
	down, err := n.rv.Resolve(n.server, n.clientLAX, key)
	if err != nil {
		t.Fatal(err)
	}
	up, err := n.rv.Resolve(n.clientLAX, n.server, key)
	if err != nil {
		t.Fatal(err)
	}
	d, u := n.rv.RTTms(&down), n.rv.RTTms(&up)
	if d <= 0 || u <= 0 {
		t.Fatal("non-positive RTT")
	}
	rel := (d - u) / d
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("asymmetric base RTT: down %.1f vs up %.1f", d, u)
	}
}

// TestResolveIsPure: resolving the same flow twice yields identical
// hop and link sequences (no hidden state).
func TestResolveIsPure(t *testing.T) {
	n := buildTestNet(t)
	for entropy := uint64(0); entropy < 16; entropy++ {
		p1, err := n.rv.Resolve(n.server, n.clientATL, entropy)
		if err != nil {
			t.Fatal(err)
		}
		p2, _ := n.rv.Resolve(n.server, n.clientATL, entropy)
		if len(p1.Hops) != len(p2.Hops) || len(p1.Links) != len(p2.Links) {
			t.Fatal("resolve not deterministic")
		}
		for i := range p1.Hops {
			if p1.Hops[i].Router.ID != p2.Hops[i].Router.ID {
				t.Fatal("hop mismatch across identical resolves")
			}
		}
		for i := range p1.Links {
			if p1.Links[i].ID != p2.Links[i].ID {
				t.Fatal("link mismatch across identical resolves")
			}
		}
	}
}
