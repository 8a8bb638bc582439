package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

// checkpointFixture builds a small campaign identity and a checkpoint that
// matches it exactly.
func checkpointFixture(t *testing.T) (*accel.Config, *model.Workload, StudyOptions, *Checkpoint) {
	t.Helper()
	cfg := accel.NVDLASmall()
	w, err := model.Build("mobilenet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := StudyOptions{Samples: 8, Inputs: 1, Tolerance: 0.1, Seed: 5, Shards: 4}
	shards := make([]ShardCheckpoint, opts.shards())
	for i := range shards {
		shards[i] = NewShardCheckpoint(i)
	}
	cp := NewCheckpoint(cfg, w, opts, shards)
	if !cp.Matches(cfg, w, opts) {
		t.Fatal("freshly assembled checkpoint does not match its own campaign")
	}
	return cfg, w, opts, cp
}

// TestCheckpointMatchesFingerprint: a checkpoint taken under one accelerator
// config must refuse to resume under a config with a different fingerprint —
// the campaign's results are a function of the config.
func TestCheckpointMatchesFingerprint(t *testing.T) {
	cfg, w, opts, cp := checkpointFixture(t)

	other := *cfg
	other.AtomicK *= 2
	if other.Fingerprint() == cfg.Fingerprint() {
		t.Fatal("perturbed config kept the same fingerprint; fixture is broken")
	}
	if cp.Matches(&other, w, opts) {
		t.Errorf("checkpoint with config fingerprint %s matched a campaign under fingerprint %s",
			cp.Config, other.Fingerprint())
	}

	// Same structural config but a corrupted recorded fingerprint: also no.
	corrupt := *cp
	corrupt.Config = "not-a-fingerprint"
	if corrupt.Matches(cfg, w, opts) {
		t.Error("checkpoint with a corrupted config fingerprint still matched")
	}
}

// TestCheckpointMatchesShardCount: the shard count is part of the campaign
// identity (it determines every shard's experiment stream), so a checkpoint
// must only match the shard count it was taken with — whether the mismatch
// is in the options or in a truncated shard list.
func TestCheckpointMatchesShardCount(t *testing.T) {
	cfg, w, opts, cp := checkpointFixture(t)

	moreShards := opts
	moreShards.Shards = opts.shards() * 2
	if cp.Matches(cfg, w, moreShards) {
		t.Errorf("checkpoint taken with %d shards matched a campaign with %d", cp.Shards, moreShards.Shards)
	}

	// A checkpoint whose recorded count is right but whose shard list was
	// truncated (e.g. hand-edited or corrupted) must not match either: every
	// logical shard needs a resume state.
	truncated := *cp
	truncated.Shard = truncated.Shard[:len(truncated.Shard)-1]
	if truncated.Matches(cfg, w, opts) {
		t.Errorf("checkpoint carrying %d of %d shard states still matched", len(truncated.Shard), cp.Shards)
	}
}

// TestCheckpointMatchesVersion: checkpoints from other format versions never
// match, so stale files degrade to a fresh campaign rather than a corrupt
// resume.
func TestCheckpointMatchesVersion(t *testing.T) {
	cfg, w, opts, cp := checkpointFixture(t)
	old := *cp
	old.Version = checkpointVersion - 1
	if old.Matches(cfg, w, opts) {
		t.Errorf("version-%d checkpoint matched a version-%d campaign", old.Version, checkpointVersion)
	}
	// And a nil checkpoint matches nothing.
	var nilCP *Checkpoint
	if nilCP.Matches(cfg, w, opts) {
		t.Error("nil checkpoint matched")
	}
}

// TestLoadCheckpointVersionRejection: loading an incompatible on-disk version
// fails with an error that names both versions and tells the operator what to
// do, instead of silently resuming garbage. v2 in particular must be refused:
// under v3's round-structured adaptive sampling a v2 cursor names a different
// experiment, so resuming one would silently produce wrong results.
func TestLoadCheckpointVersionRejection(t *testing.T) {
	_, _, _, cp := checkpointFixture(t)
	for _, version := range []int{1, 2} {
		cp.Version = version
		path := filepath.Join(t.TempDir(), "old.checkpoint.json")
		if err := cp.Save(path); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if err == nil {
			t.Fatalf("v%d checkpoint loaded without error", version)
		}
		msg := err.Error()
		for _, want := range []string{fmt.Sprintf("version %d", version), "want 3", "rerun the campaign"} {
			if !strings.Contains(msg, want) {
				t.Errorf("version-rejection error %q does not mention %q", msg, want)
			}
		}
	}
}

// TestLoadCheckpointCorrupt: unreadable and unparseable files surface as
// errors naming the problem, never as a zero-valued checkpoint.
func TestLoadCheckpointCorrupt(t *testing.T) {
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing checkpoint file loaded without error")
	}
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if err == nil {
		t.Fatal("garbage checkpoint parsed without error")
	}
	if !strings.Contains(err.Error(), "parse checkpoint") {
		t.Errorf("corrupt-file error %q does not say it failed to parse", err)
	}
}

// TestSealedJSONRoundTrip: the content-checksum envelope must round-trip a
// value exactly and be transparent to the reader.
func TestSealedJSONRoundTrip(t *testing.T) {
	_, _, _, cp := checkpointFixture(t)
	path := filepath.Join(t.TempDir(), "sealed.json")
	if err := AtomicWriteSealedJSON(path, cp); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"sealed"`) {
		t.Error("sealed file carries no envelope")
	}
	var back Checkpoint
	if err := ReadSealedJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	wantSum, err := SumJSON(cp)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := SumJSON(&back)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Error("sealed round-trip changed the payload")
	}
}

// TestSealedJSONDetectsTamper: any byte flipped inside the payload must fail
// the checksum with ErrCorruptArtifact — the detection the whole integrity
// model hangs on.
func TestSealedJSONDetectsTamper(t *testing.T) {
	_, _, _, cp := checkpointFixture(t)
	path := filepath.Join(t.TempDir(), "sealed.json")
	if err := AtomicWriteSealedJSON(path, cp); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate payload content while keeping the JSON well-formed.
	mutated := strings.Replace(string(blob), `"shard"`, `"sHard"`, 1)
	if mutated == string(blob) {
		t.Fatal("tamper mutation found nothing to replace")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	err = ReadSealedJSON(path, &back)
	if !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("tampered payload read error = %v, want ErrCorruptArtifact", err)
	}
}

// TestCheckpointSaveSealedLoad: Checkpoint.Save seals, and LoadCheckpoint
// verifies — a flipped byte in a saved campaign checkpoint, or a payload
// stripped of its envelope, is detected instead of resumed.
func TestCheckpointSaveSealedLoad(t *testing.T) {
	_, _, _, cp := checkpointFixture(t)
	path := filepath.Join(t.TempDir(), "campaign.checkpoint.json")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("sealed checkpoint failed to load: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(blob), `"config"`, `"cOnfig"`, 1)
	if mutated == string(blob) {
		t.Fatal("tamper mutation found nothing to replace")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("tampered checkpoint load error = %v, want ErrCorruptArtifact", err)
	}

	// Stripping the envelope must not launder a payload past verification:
	// every writer seals, so a bare checkpoint is unverifiable, not legacy.
	if err := AtomicWriteJSON(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("unsealed checkpoint load error = %v, want ErrCorruptArtifact", err)
	}
}
