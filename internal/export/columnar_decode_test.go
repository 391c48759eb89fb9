package export

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// rawStripe is one stripe of a hand-built chunk payload.
type rawStripe struct {
	field uint64
	enc   byte
	body  []byte
}

// chunkPayload frames stripes behind a valid, checksummed preamble
// declaring tests and traces rows and one stripe per entry.
func chunkPayload(tests, traces int, stripes []rawStripe) []byte {
	var b []byte
	for _, v := range [11]uint64{8: uint64(tests), 9: uint64(traces), 10: uint64(len(stripes))} {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	for _, s := range stripes {
		b = appendStripe(b, s.field, s.enc, s.body)
	}
	return b
}

// validStripes encodes a one-test, one-trace (two-hop) chunk and splits
// it back into its stripes, so cases can reorder, drop and edit them.
func validStripes(tb testing.TB) []rawStripe {
	tb.Helper()
	c := &platform.Chunk{
		Tests: []*ndt.Test{{ID: 7, ClientISP: "isp", TruthASPath: []topology.ASN{3, 4}}},
		Traces: []*traceroute.Trace{{Hops: []traceroute.Hop{
			{TTL: 1, DNSName: "r1"}, {TTL: 2, RTTms: 1.5},
		}}},
	}
	sc := colScratchPool.Get().(*colScratch)
	defer colScratchPool.Put(sc)
	r := &colReader{b: appendChunkPayload(nil, c, sc)}
	pre, err := readPreamble(r)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]rawStripe, pre.stripes)
	for i := range out {
		st, err := readStripe(r)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = rawStripe{st.field, st.enc, st.body}
	}
	return out
}

// TestDecodeChunkStructure pins the decoder's structural checks on
// payloads whose checksums are all valid, so only the stripe layout is
// at fault: each case edits a valid one-row chunk and names the error
// it must produce under the full and the traces-only projection ("" for
// a successful decode). A projection that skips a family skips its
// checks too.
func TestDecodeChunkStructure(t *testing.T) {
	base := validStripes(t)
	at := func(field uint64) int {
		i := slices.IndexFunc(base, func(s rawStripe) bool { return s.field == field })
		if i < 0 {
			t.Fatalf("no stripe %d in the valid chunk", field)
		}
		return i
	}
	edit := func(fn func(s []rawStripe) []rawStripe) []rawStripe {
		return fn(slices.Clone(base))
	}
	move := func(from, to int) []rawStripe {
		return edit(func(s []rawStripe) []rawStripe {
			st := s[from]
			return slices.Insert(slices.Delete(s, from, from+1), to, st)
		})
	}
	withBody := func(field uint64, body []byte) []rawStripe {
		return edit(func(s []rawStripe) []rawStripe {
			s[at(field)].body = body
			return s
		})
	}
	extra := func(st rawStripe) []rawStripe {
		return edit(func(s []rawStripe) []rawStripe { return append(s, st) })
	}
	big := binary.AppendUvarint(nil, 1<<20)
	const (
		testID       = 1
		testClient   = 2
		interLens    = 35
		interVals    = 36
		traceSrc     = 64
		traceDst     = 65
		traceHopLens = 70
		traceHopTTL  = 71
	)
	cases := []struct {
		name        string
		stripes     []rawStripe
		all, traces string
	}{
		{"valid", base, "", ""},
		{"duplicate test stripe", extra(base[at(testID)]), "duplicate stripe", ""},
		{"duplicate trace stripe", extra(base[at(traceSrc)]), "duplicate stripe", "duplicate stripe"},
		{"missing test stripe", slices.Delete(slices.Clone(base), at(testClient), at(testClient)+1), "missing test stripes", ""},
		{"missing trace stripe", slices.Delete(slices.Clone(base), at(traceDst), at(traceDst)+1), "missing trace stripes", "missing trace stripes"},
		{"list values before lengths", move(at(interVals), at(interLens)), "before", ""},
		{"hop stripe before hop lengths", move(at(traceHopTTL), at(traceHopLens)), "before", "before"},
		{"trailing byte in test stripe", withBody(testClient, append(slices.Clone(base[at(testClient)].body), 0)), "trailing bytes in stripe", ""},
		{"trailing byte in trace stripe", withBody(traceSrc, append(slices.Clone(base[at(traceSrc)].body), 0)), "trailing bytes in stripe", "trailing bytes in stripe"},
		{"list total over budget", withBody(interLens, big), "exceeds payload", ""},
		{"hop total over budget", withBody(traceHopLens, big), "exceeds payload", "exceeds payload"},
		// Field id 0 is no stripe; a traces-only read skips it with the
		// rest of the test family.
		{"field id 0", extra(rawStripe{0, encVarint, nil}), "stripe", ""},
		// Unknown ids come from a newer writer and are skipped, whatever
		// their encoding byte.
		{"unknown test ids", extra(rawStripe{39, 9, []byte{1, 2}}), "", ""},
		{"unknown test id 63", extra(rawStripe{63, encRaw, nil}), "", ""},
		{"unknown trace id 75", extra(rawStripe{75, encDict, []byte{5}}), "", ""},
		{"unknown id 1000", extra(rawStripe{1000, encBitmap, nil}), "", ""},
	}
	for _, tc := range cases {
		payload := chunkPayload(1, 1, tc.stripes)
		for _, p := range []struct {
			proj Projection
			want string
		}{{EverythingProjection(), tc.all}, {Projection{Traces: true}, tc.traces}} {
			_, _, err := decodeChunkPayload(payload, p.proj)
			switch {
			case p.want == "" && err != nil:
				t.Errorf("%s (%+v): %v, want success", tc.name, p.proj, err)
			case p.want != "" && (err == nil || !strings.Contains(err.Error(), p.want)):
				t.Errorf("%s (%+v): error %v, want one containing %q", tc.name, p.proj, err, p.want)
			}
		}
	}
}

// TestDecodeChunkLengthsWrap sends list lengths whose uint64 sum wraps
// to a small total: each length alone must already be refused, or the
// slab is sized by the wrapped sum and slicing it panics.
func TestDecodeChunkLengthsWrap(t *testing.T) {
	lens := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<64-1), 2)
	for _, tc := range []struct {
		tests, traces int
		field         uint64
		proj          Projection
	}{
		{2, 0, 35, EverythingProjection()},   // truth inter-link lengths
		{0, 2, 70, Projection{Traces: true}}, // hop lengths
	} {
		payload := chunkPayload(tc.tests, tc.traces, []rawStripe{{tc.field, encVarint, lens}})
		if _, _, err := decodeChunkPayload(payload, tc.proj); err == nil || !strings.Contains(err.Error(), "exceeds payload") {
			t.Errorf("stripe %d: wrapping lengths gave %v, want a payload budget error", tc.field, err)
		}
	}
}
