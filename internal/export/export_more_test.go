package export

import (
	"bytes"
	"strings"
	"testing"

	"throughputlab/internal/topology"
)

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := readCorpus(strings.NewReader("{not json")); err == nil {
		t.Error("garbage should fail to decode")
	}
	if _, err := readCorpus(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
}

func TestReadRejectsBadAddresses(t *testing.T) {
	// A prefix row with an invalid CIDR must surface as an error, not a
	// zero value.
	bad := rawHeader([]byte(`{"format":"` + ColumnarFormat + `","public":{"prefixes":[{"prefix":"999.0.0.0/8","asn":1}],"orgs":{},"rels":null}}`))
	if _, err := readCorpus(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "999.0.0.0") {
		t.Errorf("invalid prefix decoded with err = %v, want an error naming it", err)
	}
}

func TestParseRelRoundTrip(t *testing.T) {
	for _, r := range []topology.Rel{topology.RelCustomer, topology.RelProvider,
		topology.RelPeer, topology.RelSibling} {
		if parseRel(r.String()) != r {
			t.Errorf("parseRel(%q) != %v", r.String(), r)
		}
	}
	if parseRel("bogus") != topology.RelNone {
		t.Error("unknown rel should parse to none")
	}
}

func TestLookupsRelSymmetry(t *testing.T) {
	d := FromWorld(testWorld(), nil)
	l := d.Lookups()
	// Every stored relationship inverts correctly.
	checked := 0
	for _, row := range d.Public.Rels[:min(200, len(d.Public.Rels))] {
		r := l.Rel(row.A, row.B)
		if l.Rel(row.B, row.A) != r.Invert() {
			t.Fatalf("rel asymmetry for %d-%d", row.A, row.B)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no relationships in export")
	}
}

func TestDatasetSizeSane(t *testing.T) {
	corpus := smallCorpus(t)
	d := FromWorld(testWorld(), corpus)
	buf := writeDataset(t, d)
	// A 400-test dataset should be well under 10 MB.
	if buf.Len() > 10<<20 {
		t.Errorf("dataset is %d bytes; serialization bloated", buf.Len())
	}
	// And the JSON header must use dotted-quad addresses, not raw
	// integers.
	if !bytes.Contains(buf.Bytes(), []byte(`"prefix":"`)) {
		t.Error("prefixes not serialized as strings")
	}
}
