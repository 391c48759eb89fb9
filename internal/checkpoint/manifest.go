// Package checkpoint makes long campaigns killable and resumable with
// byte-identical results. It wraps a corpus writer (internal/export)
// in crash-safe publication — the corpus is written to a same-directory
// .partial temp file with periodic fsync at chunk boundaries and only
// renamed onto its readable path once the footer is down, so the
// readable path is always absent, a complete prior corpus, or a
// complete current one, never torn — and records enough state in a
// sidecar JSON manifest (flags fingerprint, world hash, last durable
// chunk + CRC) that `tputlab run -resume <manifest>` can verify the
// prefix, reconstruct the writer, and continue collection from the
// chunk after the last durable one. Determinism does the heavy
// lifting: the corpus is a pure function of (world, collect config),
// so the resumed suffix is byte-identical to the same chunks of an
// uninterrupted run.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"throughputlab/internal/platform"
)

// ManifestFormat names the checkpoint manifest schema version.
const ManifestFormat = "tputlab-checkpoint/1"

// ErrInterrupted aliases the platform sentinel so checkpoint callers
// and collection agree on what "interrupted" means.
var ErrInterrupted = platform.ErrInterrupted

// ManifestPath returns the sidecar manifest path for a corpus
// publication path; PartialPath returns its temp-file path. Both live
// in the corpus's own directory so the final rename never crosses a
// filesystem boundary.
func ManifestPath(corpusPath string) string { return corpusPath + ".manifest.json" }

// PartialPath returns the temp path a corpus is written to before the
// rename-on-footer publication.
func PartialPath(corpusPath string) string { return corpusPath + ".partial" }

// Fingerprint pins the campaign identity a partial corpus was
// collected under. Every field participates in resume validation: a
// mismatch on any of them means the suffix would not splice onto the
// prefix (or would silently change the corpus), so Resume refuses.
// Field names double as the CLI flag names in mismatch errors.
type Fingerprint struct {
	// Scale is the -scale profile name.
	Scale string `json:"scale,omitempty"`
	// Seed is the campaign seed (-seed).
	Seed int64 `json:"seed"`
	// Tests is the scheduled test count (-tests).
	Tests int `json:"tests"`
	// Shards is the scheduling shard count (0 = platform default).
	Shards int `json:"shards,omitempty"`
	// ChunkTests is the streamed chunk size (0 = platform default). It
	// is not part of the corpus identity, but it IS part of the
	// checkpoint identity: durable chunk sequence numbers map to byte
	// offsets only at the chunk size the prefix was written with.
	ChunkTests int `json:"chunk_tests,omitempty"`
	// Faults is the -faults profile name ("off" when disabled).
	Faults string `json:"faults,omitempty"`
	// FaultSeed is the -faultseed value (0 = reuse Seed).
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Format is the -corpus-format name the corpus was written under
	// ("columnar", the only format, or empty).
	Format string `json:"corpus_format"`
	// WorldCRC is export.HeaderFingerprint over the corpus header the
	// prefix was written with — the world hash. At resume time the
	// regenerated world must digest to the same value.
	WorldCRC uint32 `json:"world_crc"`
}

// Diff reports every field where other disagrees with fp, one
// human-readable message per mismatch naming the flag, the manifest
// value, and the conflicting current value. An empty result means the
// fingerprints match.
func (fp Fingerprint) Diff(other Fingerprint) []string {
	var d []string
	add := func(flag string, manifest, current any) {
		d = append(d, fmt.Sprintf("-%s: manifest has %v, current run has %v", flag, manifest, current))
	}
	if fp.Scale != other.Scale {
		add("scale", fp.Scale, other.Scale)
	}
	if fp.Seed != other.Seed {
		add("seed", fp.Seed, other.Seed)
	}
	if fp.Tests != other.Tests {
		add("tests", fp.Tests, other.Tests)
	}
	if fp.Shards != other.Shards {
		add("shards", fp.Shards, other.Shards)
	}
	if fp.ChunkTests != other.ChunkTests {
		add("chunk-tests", fp.ChunkTests, other.ChunkTests)
	}
	if fp.Faults != other.Faults {
		add("faults", fp.Faults, other.Faults)
	}
	if fp.FaultSeed != other.FaultSeed {
		add("faultseed", fp.FaultSeed, other.FaultSeed)
	}
	if fp.Format != other.Format {
		add("corpus-format", fp.Format, other.Format)
	}
	if fp.WorldCRC != other.WorldCRC {
		add("world", fmt.Sprintf("hash %08x", fp.WorldCRC), fmt.Sprintf("hash %08x", other.WorldCRC))
	}
	return d
}

// Durable records the verified-recoverable prefix of the partial
// corpus: everything up to and including chunk Chunks-1 has been
// synced through the OS, fsynced, and checksummed.
type Durable struct {
	// Chunks is how many chunks (from index 0) are durable.
	Chunks int `json:"chunks"`
	// Bytes is the durable prefix length in the partial file; CRC32C is
	// crc32c (Castagnoli) over exactly those bytes.
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
	// Tests, Traces, TestsWithoutTrace and Completeness are the running
	// footer totals over the durable chunks — the state a resumed
	// writer continues accumulating from.
	Tests             int                   `json:"tests"`
	Traces            int                   `json:"traces"`
	TestsWithoutTrace int                   `json:"tests_without_trace"`
	Completeness      platform.Completeness `json:"completeness"`
}

// Manifest is the sidecar JSON a checkpointing writer maintains next
// to its partial corpus. It is rewritten atomically (temp + rename) at
// every chunk-boundary sync point, so a reader always sees a complete,
// internally consistent snapshot.
type Manifest struct {
	Format string `json:"format"`
	// CorpusFinal is the publication path; CorpusPartial the temp file
	// the corpus bytes live in until the footer rename.
	CorpusFinal   string      `json:"corpus_final"`
	CorpusPartial string      `json:"corpus_partial"`
	Fingerprint   Fingerprint `json:"fingerprint"`
	Durable       Durable     `json:"durable"`
}

// LoadManifest reads and validates a checkpoint manifest.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading manifest: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: manifest %s: %w", path, err)
	}
	return m, nil
}

// parseManifest decodes and validates manifest bytes — untrusted input,
// since a manifest is a plain file a user may edit or a crash may
// leave behind.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("unsupported format %q (want %q)", m.Format, ManifestFormat)
	}
	if m.CorpusPartial == "" || m.CorpusFinal == "" {
		return nil, fmt.Errorf("missing corpus paths")
	}
	if m.Durable.Bytes <= 0 {
		return nil, fmt.Errorf("no durable prefix recorded")
	}
	if d := m.Durable; d.Chunks < 0 || d.Tests < 0 || d.Traces < 0 || d.TestsWithoutTrace < 0 {
		return nil, fmt.Errorf("negative durable totals")
	}
	return &m, nil
}

// Store writes the manifest atomically: a same-directory temp file is
// written, fsynced, and renamed over the manifest path, so a crash
// mid-update leaves the previous (still valid) manifest in place.
func (m *Manifest) Store(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: writing manifest: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing manifest: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: publishing manifest: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Filesystems that refuse to sync directories (some CI overlay
// mounts) are tolerated — the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return nil
	}
	return nil
}
