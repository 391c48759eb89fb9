package export

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"

	"throughputlab/internal/mapit"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
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

// writeDataset persists d as a one-chunk columnar corpus, the way
// cmd/ndtsim does.
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
// magic, bypassing the writer's validation, so Read's own checks of the
// public bundle can be exercised.
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
	back, err := Read(buf)
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

func TestLookupsMatchWorld(t *testing.T) {
	world := testWorld()
	d := FromWorld(world, nil)
	buf := writeDataset(t, d)
	back, _ := Read(buf)
	l := back.Lookups()

	// Origin lookups agree with the world.
	cli, _ := world.NewClient("Comcast", "nyc")
	wantASN, _ := world.Topo.OriginOf(cli.Addr)
	gotASN, ok := l.OriginOf(cli.Addr)
	if !ok || gotASN != wantASN {
		t.Errorf("origin %d (ok=%v), want %d", gotASN, ok, wantASN)
	}
	// Sibling collapse agrees.
	com := world.Access["Comcast"].Org.ASNs
	if len(com) > 1 && !l.SameOrg(com[0], com[1]) {
		t.Error("sibling ASNs not same-org after round trip")
	}
	if l.SameOrg(com[0], 3356) {
		t.Error("Comcast and Level3 are not siblings")
	}
	// Relationships agree.
	if l.Rel(3356, com[0]) != world.Topo.RelOf(3356, com[0]) {
		t.Error("relationship mismatch after round trip")
	}
	// IXP prefixes survive.
	if len(world.Topo.IXPPrefixes) > 0 && !l.IsIXP(world.Topo.IXPPrefixes[0].Nth(1)) {
		t.Error("IXP prefix lost")
	}
}

func TestMapItOverExportedData(t *testing.T) {
	world := testWorld()
	// The exported public data must be sufficient to run MAP-IT with
	// the same quality as the in-process lookups.
	corpus := smallCorpus(t)
	d := FromWorld(world, corpus)
	buf := writeDataset(t, d)
	back, _ := Read(buf)
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
