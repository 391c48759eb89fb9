package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"throughputlab/internal/checkpoint"
	"throughputlab/internal/export"
	"throughputlab/internal/platform"
)

const comcast = "Comcast Cable Communications"

// arkSpec is `tputlab corpus ark -scale small -seed 1 -corpus-out out`.
func arkSpec(out string) Spec {
	return Spec{Scale: "small", Seed: 1, Workers: 2, GenWorkers: 2, CorpusOut: out}
}

// writeArk persists the bed-us prefix campaign at small scale and
// returns its path.
func writeArk(t *testing.T) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "bed.tpc")
	if err := Ark(context.Background(), arkSpec(out), "bed-us"); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestArkCampaignToFile pins `corpus ark bed-us -scale small -seed 1`
// to the bytes the pipeline has always published: a traces-only
// corpus whose header meta carries no test count, and no partial file
// left behind.
func TestArkCampaignToFile(t *testing.T) {
	out := writeArk(t)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha(raw), "d3b77ca9493a8768919cef36fd49b2ee2917c9ca0cecab22fc137a0c02bdbe7d"; got != want {
		t.Errorf("ark corpus sha256 %s, want %s", got, want)
	}
	if _, err := os.Stat(checkpoint.PartialPath(out)); !os.IsNotExist(err) {
		t.Errorf("published corpus left its partial file behind (stat: %v)", err)
	}
	r, err := openReader(out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Meta(); m.Tests != 0 || m.Scale != "small" || m.Seed != 1 {
		t.Errorf("ark corpus meta %+v, want small, seed 1 and no test count", m)
	}
	var tests, traces int
	if _, err := r.replay(context.Background(), func(ch *platform.Chunk) error {
		tests, traces = tests+len(ch.Tests), traces+len(ch.Traces)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if traces < 100 || tests != 0 {
		t.Fatalf("ark corpus has %d traces, %d tests", traces, tests)
	}
}

// TestArkBdrmapGolden pins the README pipeline, `corpus ark bed-us
// -scale small -seed 1` then `corpus bdrmap -org "Comcast Cable
// Communications"`, to the border map the pipeline has always printed.
func TestArkBdrmapGolden(t *testing.T) {
	got, err := Bdrmap(writeArk(t), comcast, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s, want := sha([]byte(got)), "997c984f3022f9e82d70b19824ed5bb5e2a7d7bc74cb7db86b1c5435845222a9"; s != want {
		t.Errorf("bdrmap output sha256 %s, want %s:\n%s", s, want, got)
	}
}

// TestArkUnknownVP pins that a VP label the world lacks is refused and
// publishes nothing.
func TestArkUnknownVP(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.tpc")
	err := Ark(context.Background(), arkSpec(out), "nosuch-vp")
	if err == nil || !strings.Contains(err.Error(), "nosuch-vp") {
		t.Fatalf("unknown VP: err = %v, want an error naming it", err)
	}
	assertEmpty(t, filepath.Dir(out))
}

// TestArkReportsWriteError pins that a corpus that cannot be written
// fails the command instead of exiting 0; a device is written in
// place.
func TestArkReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Fatalf("no /dev/full: %v", err)
	}
	if err := Ark(context.Background(), arkSpec("/dev/full"), "bed-us"); err == nil {
		t.Error("writing to a full device reported success")
	}
	if err := Ark(context.Background(), arkSpec(""), "bed-us"); err == nil || !strings.Contains(err.Error(), "-corpus-out") {
		t.Errorf("ark without -corpus-out: err = %v, want an error naming it", err)
	}
}

// TestArkFailureLeavesNothing pins atomic publication: a corpus whose
// name is taken by a directory, which checkpoint.Create refuses before
// anything is written, leaves the directory alone and no partial file.
// A write that fails midway is checkpoint.Writer's own contract, held
// by internal/checkpoint.
func TestArkFailureLeavesNothing(t *testing.T) {
	t.Run("rename", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "bed.tpc")
		if err := os.Mkdir(out, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Ark(context.Background(), arkSpec(out), "bed-us"); err == nil {
			t.Fatal("publishing onto a directory reported success")
		}
		assertEmpty(t, out)
		if _, err := os.Stat(checkpoint.PartialPath(out)); !os.IsNotExist(err) {
			t.Errorf("failed run left its partial file (stat: %v)", err)
		}
	})
}

// TestCorpusToolsChunkingInvariant pins that `corpus mapit` and `corpus
// bdrmap` read a corpus one chunk at a time without the chunking
// showing: the 2000-test small campaign in one chunk and in 97-test
// chunks renders the same bytes, and MAP-IT's are the bytes the tool
// has always printed over it.
func TestCorpusToolsChunkingInvariant(t *testing.T) {
	var mapits, bdrmaps []string
	for _, chunk := range []int{0, 97} {
		s := formatSpec("off")
		s.Tests, s.ChunkTests, s.CorpusOut = 2000, chunk, filepath.Join(t.TempDir(), "corpus.tpc")
		if _, err := Report(context.Background(), s, nil); err != nil {
			t.Fatal(err)
		}
		m, err := MapIt(s.CorpusOut, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Bdrmap(s.CorpusOut, comcast, 2)
		if err != nil {
			t.Fatal(err)
		}
		mapits, bdrmaps = append(mapits, m), append(bdrmaps, b)
	}
	if got, want := sha([]byte(mapits[0])), "0112c1ee1525787768e9f0f07112eb073a2a0f56ce458df19a8d92d9b8854dc4"; got != want {
		t.Errorf("mapit output sha256 %s, want %s:\n%s", got, want, mapits[0])
	}
	if mapits[1] != mapits[0] {
		t.Errorf("mapit output differs at 97-test chunks:\n%s\nwant\n%s", mapits[1], mapits[0])
	}
	if !strings.Contains(bdrmaps[0], "AS-level borders:") || bdrmaps[1] != bdrmaps[0] {
		t.Errorf("bdrmap output differs at 97-test chunks:\n%s\nwant\n%s", bdrmaps[1], bdrmaps[0])
	}
}

// TestMapItMissingFile pins that `corpus mapit` over a missing file is
// an error.
func TestMapItMissingFile(t *testing.T) {
	if _, err := MapIt("/nonexistent/x.tpc", 1); err == nil {
		t.Error("mapit over a missing file: no error")
	}
}

// TestMapItEmptyDataset pins that `corpus mapit` over a corpus without
// traceroutes is an error.
func TestMapItEmptyDataset(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.tpc")
	f, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := export.NewColumnarWriter(f, export.Public{}, export.StreamMeta{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := MapIt(empty, 1); err == nil || !strings.Contains(err.Error(), "no traceroutes") {
		t.Errorf("mapit over a corpus without traces: err = %v, want a no-traceroutes error", err)
	}
}

// TestBdrmapMissingFile pins that `corpus bdrmap` over a missing file
// is an error.
func TestBdrmapMissingFile(t *testing.T) {
	if _, err := Bdrmap("/nonexistent/x.tpc", comcast, 1); err == nil {
		t.Error("bdrmap over a missing file: no error")
	}
}

// TestBdrmapRequiresOrg pins that `corpus bdrmap` refuses a missing or
// unknown -org.
func TestBdrmapRequiresOrg(t *testing.T) {
	in := writeArk(t)
	if _, err := Bdrmap(in, "", 1); err == nil || !strings.Contains(err.Error(), "-org") {
		t.Errorf("bdrmap without -org: err = %v, want an error naming -org", err)
	}
	if _, err := Bdrmap(in, "No Such Org", 1); err == nil || !strings.Contains(err.Error(), "No Such Org") {
		t.Errorf("bdrmap with an unknown org: err = %v, want an error naming it", err)
	}
}
