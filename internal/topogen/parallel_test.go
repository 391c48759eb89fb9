package topogen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"throughputlab/internal/obs"
	"throughputlab/internal/routing"
	"throughputlab/internal/topology"
)

// smallWorldHash pins the full SmallConfig world digest — topology,
// DNS names, BGP routes, and resolver output. Generate must produce
// this exact world at EVERY worker count; a change here means the
// generated universe changed and every downstream golden result moves.
const smallWorldHash uint64 = 0xe77a2ccee97d56e0

// worldHasher accumulates a 64-bit FNV-1a digest of world fields.
type worldHasher struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func newWorldHasher() *worldHasher { return &worldHasher{h: fnv.New64a()} }

func (w *worldHasher) str(s string) {
	w.h.Write([]byte(s))
	w.h.Write([]byte{0})
}

func (w *worldHasher) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	w.h.Write(b[:])
}

func (w *worldHasher) f64(v float64) { w.i64(int64(math.Float64bits(v))) }

// worldHash digests everything generation produces that downstream
// code can observe: the topology graph (routers, links, addresses,
// utilization), DNS names, the BGP route tables, and a sample of
// resolved forwarding paths.
func worldHash(w *World) uint64 {
	h := newWorldHasher()

	// Topology: ASes in insertion order, then routers and links in ID
	// order (both are ground-truth-stable).
	for _, asn := range w.Topo.ASNs() {
		as := w.Topo.AS(asn)
		h.i64(int64(asn))
		h.str(as.Name)
		if as.Org != nil {
			h.str(as.Org.Name)
		}
		h.i64(int64(as.Type))
		for _, m := range as.Metros {
			h.str(m)
		}
		for _, p := range as.Originated {
			h.str(p.String())
		}
	}
	for _, r := range w.Topo.Routers() {
		h.i64(int64(r.ID))
		h.i64(int64(r.AS))
		h.str(r.Metro)
		h.i64(int64(r.Kind))
		h.str(r.Name)
	}
	for _, l := range w.Topo.Links() {
		h.i64(int64(l.ID))
		h.i64(int64(l.Kind))
		h.str(l.Metro)
		h.f64(l.CapacityMbps)
		h.f64(l.BaseUtil)
		h.f64(l.PeakUtil)
		for _, ifc := range []*topology.Interface{l.A, l.B} {
			if ifc == nil {
				continue
			}
			h.str(ifc.Addr.String())
			h.i64(int64(ifc.AddrOwner))
			h.str(ifc.DNSName)
		}
		if l.IXP != nil {
			h.str(l.IXP.Name)
		}
	}

	// Routes: next hop and class for every ordered AS pair.
	asns := w.Topo.ASNs()
	for _, src := range asns {
		for _, dst := range asns {
			nh, ok := w.Routes.NextHop(src, dst)
			if !ok {
				h.i64(-1)
				continue
			}
			h.i64(int64(nh))
			h.i64(int64(w.Routes.Class(src, dst)))
			h.i64(int64(w.Routes.PathLen(src, dst)))
		}
	}

	// Resolver output: forwarding paths for a deterministic sample of
	// server→client flows (hop routers, ingress addresses, AS path).
	servers := w.MLabServers()
	for vi, vp := range w.ArkVPs {
		if vi >= 4 || len(servers) == 0 {
			break
		}
		s := servers[vi%len(servers)]
		key := routing.FlowKey(s.Endpoint.Addr, vp.Host.Endpoint.Addr, uint32(vi))
		p, err := w.Resolver.Resolve(s.Endpoint, vp.Host.Endpoint, key)
		if err != nil {
			h.str("resolve-error:" + err.Error())
			continue
		}
		for _, hop := range p.Hops {
			h.i64(int64(hop.Router.ID))
			if hop.Ingress != nil {
				h.str(hop.Ingress.Addr.String())
			}
		}
		for _, a := range p.ASPath {
			h.i64(int64(a))
		}
	}
	return h.h.Sum64()
}

// TestGenerateWorkerCountInvariance is the tentpole's determinism
// contract: the same Config must yield a byte-identical world whether
// generation runs serial or sharded over any worker pool, and whether
// its route trees are computed up front or on demand.
func TestGenerateWorkerCountInvariance(t *testing.T) {
	hashes := map[int]uint64{}
	for _, workers := range []int{1, 2, 8} {
		cfg := SmallConfig()
		cfg.Workers = workers
		w := MustGenerate(cfg)
		hashes[workers] = worldHash(w)
	}
	for _, workers := range []int{2, 8} {
		if hashes[workers] != hashes[1] {
			t.Errorf("workers=%d world hash %#x != serial %#x", workers, hashes[workers], hashes[1])
		}
	}
	if hashes[1] != smallWorldHash {
		t.Errorf("small world hash = %#x, want pinned %#x (the generated universe changed)", hashes[1], smallWorldHash)
	}
}

// TestGenerateParallelRace generates with a full worker fan-out and an
// attached obs registry (live per-worker child spans); it exists to
// run under -race in CI.
func TestGenerateParallelRace(t *testing.T) {
	cfg := SmallConfig()
	cfg.Workers = 8
	cfg.Obs = obs.NewRegistry()
	w := MustGenerate(cfg)
	if w.Topo.NumRouters() == 0 {
		t.Fatal("empty world")
	}
}
