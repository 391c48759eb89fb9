package export

import (
	"bytes"
	"strings"
	"testing"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/topology"
)

func mustPrefix(t *testing.T, s string) netaddr.Prefix {
	t.Helper()
	p, err := netaddr.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReadRejectsConflictingRels pins the Lookups bugfix: a bundle
// carrying contradictory relationships for one AS pair used to be
// resolved silently by whichever row came last; Read now refuses it
// with an error naming the pair.
func TestReadRejectsConflictingRels(t *testing.T) {
	d := &Dataset{Public: Public{Rels: []relRow{
		{A: 10, B: 20, Rel: "customer"},
		{A: 20, B: 10, Rel: "peer"}, // contradicts: should be provider
	}}}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Read(&buf)
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
	buf.Reset()
	if err := ok.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("consistent duplicate rows rejected: %v", err)
	}
}

// TestReadRejectsConflictingPrefixOrigins pins the other half of the
// fix: a prefix announced with two different origins is ambiguous, not
// last-write-wins.
func TestReadRejectsConflictingPrefixOrigins(t *testing.T) {
	p := mustPrefix(t, "16.0.4.0/22")
	d := &Dataset{Public: Public{Prefixes: []PrefixOrigin{
		{Prefix: p, ASN: 100},
		{Prefix: p, ASN: 200},
	}}}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Read(&buf)
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
	buf.Reset()
	if err := dup.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("duplicate announcement rejected: %v", err)
	}
}

// TestWithTracesDeepCopies pins the aliasing bugfix: mutating the
// copy's public tables must leave the original dataset untouched.
func TestWithTracesDeepCopies(t *testing.T) {
	d := FromWorld(testWorld(), nil)
	if len(d.Public.Prefixes) == 0 || len(d.Public.Rels) == 0 || len(d.Public.Orgs) == 0 {
		t.Fatal("fixture world exports empty public tables")
	}
	wantPrefix := d.Public.Prefixes[0]
	wantRel := d.Public.Rels[0]
	var orgName string
	for name := range d.Public.Orgs {
		if len(d.Public.Orgs[name]) > 0 {
			orgName = name
			break
		}
	}
	wantASN := d.Public.Orgs[orgName][0]
	wantIXPs := len(d.Public.IXPPrefixes)

	d2 := d.WithTraces(nil)
	d2.Public.Prefixes[0] = PrefixOrigin{Prefix: mustPrefix(t, "1.2.3.0/24"), ASN: 65000}
	d2.Public.Rels[0] = relRow{A: 1, B: 2, Rel: "peer"}
	d2.Public.Orgs[orgName][0] = topology.ASN(65001)
	d2.Public.IXPPrefixes = append(d2.Public.IXPPrefixes, mustPrefix(t, "9.9.9.0/24"))
	delete(d2.Public.Orgs, orgName)

	if d.Public.Prefixes[0] != wantPrefix {
		t.Error("prefix table aliased into the copy")
	}
	if d.Public.Rels[0] != wantRel {
		t.Error("relationship table aliased into the copy")
	}
	if d.Public.Orgs[orgName][0] != wantASN {
		t.Error("org member slice aliased into the copy")
	}
	if len(d.Public.IXPPrefixes) != wantIXPs {
		t.Error("IXP prefix slice aliased into the copy")
	}
}
