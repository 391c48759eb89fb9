package export

import (
	"encoding/json"
	"strings"
	"testing"

	"throughputlab/internal/netaddr"
)

func mustPrefix(t *testing.T, s string) netaddr.Prefix {
	t.Helper()
	p, err := netaddr.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// headerOnly encodes a corpus header carrying public, which the writer
// would refuse to publish if it is conflicted.
func headerOnly(t *testing.T, public Public) []byte {
	t.Helper()
	hdr, err := json.Marshal(streamHeader{Format: ColumnarFormat, Public: public})
	if err != nil {
		t.Fatal(err)
	}
	return rawHeader(hdr)
}

// TestReadRejectsConflictingRels pins the Lookups bugfix: a bundle
// carrying contradictory relationships for one AS pair used to be
// resolved silently by whichever row came last; opening the corpus
// now refuses it with an error naming the pair.
func TestReadRejectsConflictingRels(t *testing.T) {
	_, err := openCorpus(headerOnly(t, Public{Rels: []relRow{
		{A: 10, B: 20, Rel: "customer"},
		{A: 20, B: 10, Rel: "peer"}, // contradicts: should be provider
	}}), 1)
	if err == nil {
		t.Fatal("conflicting relationship rows accepted")
	}
	if !strings.Contains(err.Error(), "(20,10)") && !strings.Contains(err.Error(), "(10,20)") {
		t.Fatalf("error does not name the conflicted pair: %v", err)
	}
	// The consistent encodings of one edge stay legal: duplicate rows
	// and the inverted orientation.
	ok := &Dataset{Public: Public{Rels: []relRow{
		{A: 10, B: 20, Rel: "customer"},
		{A: 10, B: 20, Rel: "customer"},
		{A: 20, B: 10, Rel: "provider"},
	}}}
	if _, err := readCorpus(writeDataset(t, ok)); err != nil {
		t.Fatalf("consistent duplicate rows rejected: %v", err)
	}
}

// TestReadRejectsConflictingPrefixOrigins pins the other half of the
// fix: a prefix announced with two different origins is ambiguous, not
// last-write-wins.
func TestReadRejectsConflictingPrefixOrigins(t *testing.T) {
	p := mustPrefix(t, "16.0.4.0/22")
	_, err := openCorpus(headerOnly(t, Public{Prefixes: []PrefixOrigin{
		{Prefix: p, ASN: 100},
		{Prefix: p, ASN: 200},
	}}), 1)
	if err == nil {
		t.Fatal("conflicting prefix origins accepted")
	}
	if !strings.Contains(err.Error(), "AS100") || !strings.Contains(err.Error(), "AS200") {
		t.Fatalf("error does not name both origins: %v", err)
	}
	// An exact duplicate announcement is harmless.
	dup := &Dataset{Public: Public{Prefixes: []PrefixOrigin{
		{Prefix: p, ASN: 100},
		{Prefix: p, ASN: 100},
	}}}
	if _, err := readCorpus(writeDataset(t, dup)); err != nil {
		t.Fatalf("duplicate announcement rejected: %v", err)
	}
}
