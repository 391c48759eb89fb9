package export

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"testing"

	"throughputlab/internal/mapit"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// testWorld is the shared small fixture world, generated on first use
// so fuzz workers, which run no tests, never build one.
var testWorld = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

func smallCorpus(t testing.TB) *platform.Corpus {
	t.Helper()
	cfg := platform.DefaultCollect()
	cfg.Tests = 400
	cfg.PerPoolClients = 4
	c, err := platform.CollectParallelCtx(context.Background(), testWorld(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// readCorpus decodes a columnar corpus in full, the footer's ledger
// folded in.
func readCorpus(r io.Reader) (*Dataset, error) {
	cr, err := OpenCorpusProjected(r, 1, EverythingProjection())
	if err != nil {
		return nil, err
	}
	defer cr.Close()
	d := &Dataset{Public: *cr.Public()}
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		d.Tests = append(d.Tests, c.Tests...)
		d.Traces = append(d.Traces, c.Traces...)
	}
	d.TestsWithoutTrace = cr.Footer().TestsWithoutTrace
	d.Completeness = cr.Footer().Completeness
	return d, nil
}

// writeDataset persists d as a one-chunk columnar corpus, the way
// `tputlab corpus ark` does.
func writeDataset(t testing.TB, d *Dataset) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewColumnarWriter(&buf, d.Public, StreamMeta{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteChunk(&platform.Chunk{Tests: d.Tests, Traces: d.Traces,
		TestsWithoutTrace: d.TestsWithoutTrace, Completeness: d.Completeness}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// rawHeader frames an arbitrary header payload behind the columnar
// magic, bypassing the writer's validation, so the reader's own checks
// of the public bundle can be exercised.
func rawHeader(payload []byte) []byte {
	b := []byte(columnarMagic)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
}

func TestRoundTrip(t *testing.T) {
	corpus := smallCorpus(t)
	d := FromWorld(testWorld(), corpus)
	buf := writeDataset(t, d)
	back, err := readCorpus(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tests) != len(d.Tests) || len(back.Traces) != len(d.Traces) {
		t.Fatalf("corpus sizes changed: %d/%d vs %d/%d",
			len(back.Tests), len(back.Traces), len(d.Tests), len(d.Traces))
	}
	if len(back.Public.Prefixes) != len(d.Public.Prefixes) {
		t.Error("prefix table size changed")
	}
	if back.Tests[0].ClientAddr != d.Tests[0].ClientAddr {
		t.Error("test addresses corrupted")
	}
	if back.Traces[0].Hops[0].Addr != d.Traces[0].Hops[0].Addr {
		t.Error("trace hops corrupted")
	}
	if back.TestsWithoutTrace != d.TestsWithoutTrace || back.Completeness != d.Completeness {
		t.Error("round trip lost the corpus ledger")
	}
}

// TestLookupsMatchWorld holds the published lookups, after a corpus
// round trip, to the generator's truth that MAP-IT once read directly:
// every origin, organization, relationship and IXP prefix.
func TestLookupsMatchWorld(t *testing.T) {
	world := testWorld()
	d := FromWorld(world, nil)
	buf := writeDataset(t, d)
	back, _ := readCorpus(buf)
	l := back.Lookups()
	tp := world.Topo

	// Origin lookups agree with the world on every interface address
	// and on a client address.
	cli, _ := world.NewClient("Comcast", "nyc")
	addrs := []netaddr.Addr{cli.Addr}
	for _, r := range tp.Routers() {
		for _, ifc := range r.Ifaces {
			addrs = append(addrs, ifc.Addr)
		}
	}
	for _, a := range addrs {
		wantASN, wantOK := tp.OriginOf(a)
		if gotASN, ok := l.OriginOf(a); gotASN != wantASN || ok != wantOK {
			t.Fatalf("origin of %v: %d (ok=%v), want %d (ok=%v)", a, gotASN, ok, wantASN, wantOK)
		}
	}
	// Sibling collapse agrees: every pair of one organization's ASNs is
	// one org, each of them lists the org's ASNs in the world's order,
	// and across every AS adjacency (siblings and not) the lookups
	// collapse exactly the pairs the world does.
	for _, org := range tp.Orgs {
		for _, a := range org.ASNs {
			if got := l.Siblings(a); !slices.Equal(got, org.ASNs) {
				t.Fatalf("%s: Siblings(AS%d) = %v, want %v", org.Name, a, got, org.ASNs)
			}
			for _, b := range org.ASNs {
				if !l.SameOrg(a, b) {
					t.Fatalf("%s: AS%d and AS%d not same-org after round trip", org.Name, a, b)
				}
			}
		}
	}
	com := world.Access["Comcast"].Org.ASNs
	if l.SameOrg(com[0], 3356) {
		t.Error("Comcast and Level3 are not siblings")
	}
	if got := l.Siblings(0); !slices.Equal(got, []topology.ASN{0}) {
		t.Errorf("Siblings of an AS without an org row = %v, want the AS alone", got)
	}
	rels := 0
	for _, a := range tp.ASNs() {
		for _, b := range tp.Neighbors(a) {
			if got, want := l.SameOrg(a, b), tp.SameOrg(a, b); got != want {
				t.Fatalf("SameOrg(AS%d, AS%d) = %v, want %v", a, b, got, want)
			}
			// Relationships agree, in both orientations.
			if got, want := l.Rel(a, b), tp.RelOf(a, b); got != want {
				t.Fatalf("Rel(AS%d, AS%d) = %v, want %v", a, b, got, want)
			}
			rels++
		}
	}
	// Every IXP prefix survives, first to last address.
	for _, p := range tp.IXPPrefixes {
		for _, i := range []uint64{0, 1, p.NumAddrs() - 1} {
			if !l.IsIXP(p.Nth(i)) {
				t.Fatalf("IXP prefix %v lost (address %v)", p, p.Nth(i))
			}
		}
	}
	if len(addrs) < 1000 || len(tp.Orgs) == 0 || rels == 0 || len(tp.IXPPrefixes) == 0 {
		t.Fatalf("checked %d addresses, %d orgs, %d relationships, %d IXP prefixes: the world is too small to test",
			len(addrs), len(tp.Orgs), rels, len(tp.IXPPrefixes))
	}
}

func TestMapItOverExportedData(t *testing.T) {
	world := testWorld()
	// The exported public data must be sufficient to run MAP-IT with
	// the same quality as the in-process lookups.
	corpus := smallCorpus(t)
	d := FromWorld(world, corpus)
	buf := writeDataset(t, d)
	back, _ := readCorpus(buf)
	inf := mapit.Run(back.Traces, back.Lookups().MapItOpts())
	if len(inf.Links) == 0 {
		t.Fatal("no links inferred from exported dataset")
	}
	// Spot-check operator accuracy against ground truth.
	total, correct := 0, 0
	for a, got := range inf.Operator {
		ifc := world.Topo.IfaceByAddr[a]
		if ifc == nil {
			continue
		}
		total++
		if got == ifc.Router.AS || world.Topo.SameOrg(got, ifc.Router.AS) {
			correct++
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.85 {
		t.Errorf("accuracy %d/%d too low over exported data", correct, total)
	}
}
