package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/model"
)

// checkpointVersion guards the on-disk format; bump on incompatible change.
//
// v2 (supervised campaigns): every experiment draws from an independent
// random stream derived from (seed, shard, cursor), so the cursor alone
// positions a resume — the v1 per-shard sampler draw counter is gone. v2
// also pins the accelerator config fingerprint and persists the quarantine
// list of experiments the supervisor removed after framework failures.
//
// v3 (adaptive campaigns): the campaign identity gains TargetCI and every
// shard carries its adaptive round state (completed rounds, the per-round
// per-stratum allocation history, and the convergence flag). A v2 cursor is
// meaningless under round-structured sampling — the same Cursor names a
// different experiment — so v2 files are rejected instead of misresumed.
const checkpointVersion = 3

// Cursor addresses the next experiment of a shard inside the campaign's
// deterministic loop nest: input → fault model (AllIDs order) → layer
// execution (per-layer mode only) → sample.
type Cursor struct {
	Input  int `json:"input"`
	Model  int `json:"model"`
	Exec   int `json:"exec"`
	Sample int `json:"sample"`
}

// before orders cursors by the campaign loop nest.
func (c Cursor) before(o Cursor) bool {
	if c.Input != o.Input {
		return c.Input < o.Input
	}
	if c.Model != o.Model {
		return c.Model < o.Model
	}
	if c.Exec != o.Exec {
		return c.Exec < o.Exec
	}
	return c.Sample < o.Sample
}

// Quarantine reasons recorded by the campaign supervisor.
const (
	// ReasonPanic marks an experiment whose injection code panicked; the
	// panic was recovered and the experiment removed from the study.
	ReasonPanic = "panic"
	// ReasonTimeout marks an experiment that exceeded
	// StudyOptions.ExperimentTimeout and was abandoned by the watchdog.
	ReasonTimeout = "timeout"
)

// QuarantinedExperiment records one experiment the supervision layer removed
// from the campaign after a framework-level failure. Because experiment
// streams are cursor-derived, a resumed campaign skips a quarantined cursor
// bit-identically: no other experiment's draws depend on it.
type QuarantinedExperiment struct {
	Shard  int    `json:"shard"`
	Cursor Cursor `json:"cursor"`
	// Model names the fault model the experiment would have exercised.
	Model string `json:"model"`
	// Reason is ReasonPanic or ReasonTimeout.
	Reason string `json:"reason"`
	// Detail carries the panic value or the exceeded timeout. Deliberately
	// deterministic (no stack traces): a resumed run must reproduce the
	// quarantine list of an uninterrupted one byte for byte.
	Detail string `json:"detail,omitempty"`
}

// ShardCheckpoint is one logical shard's resumable state: the Proportion
// tallies accumulated so far, the cursor of the next experiment to run, and
// the experiments quarantined by the supervisor. A shard restored from this
// state continues bit-identically to an uninterrupted run.
type ShardCheckpoint struct {
	Index  int    `json:"index"`
	Done   bool   `json:"done,omitempty"`
	Cursor Cursor `json:"cursor"`
	// Experiments counts this shard's completed injection runs.
	Experiments int                            `json:"experiments"`
	Masked      map[faultmodel.ID]Proportion   `json:"masked"`
	PerLayer    []map[faultmodel.ID]Proportion `json:"per_layer,omitempty"`
	Perturb     PerturbationStats              `json:"perturb"`
	// Quarantine lists this shard's supervisor-removed experiments, in
	// cursor order. Resume skips them without re-running.
	Quarantine []QuarantinedExperiment `json:"quarantine,omitempty"`
	// Adaptive carries the shard's round state in adaptive (TargetCI)
	// campaigns: nil in fixed-count campaigns.
	Adaptive *AdaptiveShardState `json:"adaptive,omitempty"`
}

// identity pins the exact campaign a checkpoint belongs to: format version,
// accelerator config, workload, sampling options, seed, shard count and
// hardening. It is comparable, so NewCheckpoint builds it once and Matches
// compares it whole — a field added here joins both at once. Execution
// choices that cannot change results (workers, timeouts, paths) are
// deliberately absent.
type identity struct {
	Version int `json:"version"`
	// Config is the accelerator description's fingerprint
	// (accel.Config.Fingerprint): results are a function of the config, so
	// resuming under a different one would corrupt them.
	Config    string  `json:"config"`
	Workload  string  `json:"workload"`
	Precision string  `json:"precision"`
	Tolerance float64 `json:"tolerance"`
	Samples   int     `json:"samples"`
	// TargetCI is the adaptive campaign's per-stratum 95% Wilson half-width
	// target (0 for fixed-count campaigns). Like Samples it is part of the
	// campaign identity: the round structure is a function of it.
	TargetCI float64 `json:"target_ci,omitempty"`
	Inputs   int     `json:"inputs"`
	Seed     int64   `json:"seed"`
	Shards   int     `json:"shards"`
	PerLayer bool    `json:"per_layer,omitempty"`
	// Hardening fingerprints the clamps installed on the workload's network
	// (nn.Network.ClampFingerprint; empty for an unhardened one): clamps
	// change every experiment's forward pass, so a hardened and an unhardened
	// campaign must never share checkpoints.
	Hardening string `json:"hardening,omitempty"`
}

// identityOf builds the identity of the campaign defined by (cfg, w, opts).
func identityOf(cfg *accel.Config, w *model.Workload, opts StudyOptions) identity {
	return identity{
		Version:   checkpointVersion,
		Config:    cfg.Fingerprint(),
		Workload:  w.Net.Name(),
		Precision: w.Net.Precision.String(),
		Tolerance: opts.Tolerance,
		Samples:   opts.Samples,
		TargetCI:  opts.TargetCI,
		Inputs:    opts.Inputs,
		Seed:      opts.Seed,
		Shards:    opts.shards(),
		PerLayer:  opts.PerLayer,
		Hardening: w.Net.ClampFingerprint(),
	}
}

// Checkpoint is a resumable snapshot of an in-flight Study. The embedded
// identity pins the exact campaign; a checkpoint only resumes a Study whose
// parameters match, so stale files are ignored rather than silently
// corrupting results.
type Checkpoint struct {
	identity
	// Experiments is the total completed across shards (convenience).
	Experiments int `json:"experiments"`
	// Quarantined is the total quarantine count across shards (convenience).
	Quarantined int               `json:"quarantined,omitempty"`
	Shard       []ShardCheckpoint `json:"shard"`
}

// Matches reports whether the checkpoint belongs to the campaign defined by
// (cfg, w, opts) and carries one state per logical shard, in index order: a
// shard state in another shard's place would resume the wrong stream.
func (c *Checkpoint) Matches(cfg *accel.Config, w *model.Workload, opts StudyOptions) bool {
	if c == nil || c.identity != identityOf(cfg, w, opts) || len(c.Shard) != c.Shards {
		return false
	}
	for i, sc := range c.Shard {
		if sc.Index != i {
			return false
		}
	}
	return true
}

// NewShardCheckpoint returns the canonical empty state of one logical shard:
// the checkpoint a shard with nothing to resume starts from, with every fault
// model's tally present and zero.
func NewShardCheckpoint(index int) ShardCheckpoint {
	sc := ShardCheckpoint{
		Index:  index,
		Masked: make(map[faultmodel.ID]Proportion, len(faultmodel.AllIDs())),
	}
	for _, id := range faultmodel.AllIDs() {
		sc.Masked[id] = Proportion{}
	}
	return sc
}

// NewCheckpoint assembles per-shard states into one campaign checkpoint whose
// identity fields pin (cfg, w, opts). The shards slice must hold one entry
// per logical shard, in index order — exactly what a completed or interrupted
// run of every shard produces.
func NewCheckpoint(cfg *accel.Config, w *model.Workload, opts StudyOptions, shards []ShardCheckpoint) *Checkpoint {
	cp := &Checkpoint{identity: identityOf(cfg, w, opts)}
	for _, sc := range shards {
		cp.Experiments += sc.Experiments
		cp.Quarantined += len(sc.Quarantine)
		cp.Shard = append(cp.Shard, sc)
	}
	return cp
}

// Save writes the checkpoint as JSON, atomically and durably: temp file +
// fsync + rename + directory fsync, so a crash at any point leaves either
// the old checkpoint or the complete new one — never a truncated or lost
// file. The checkpoint is wrapped in the content-checksum envelope
// (AtomicWriteSealedJSON), so bit rot or a torn file is detected at load
// instead of silently resuming a corrupted campaign.
func (c *Checkpoint) Save(path string) error {
	return AtomicWriteSealedJSON(path, c)
}

// sealVersion tags the integrity envelope persisted artifacts are wrapped
// in. Version 1: hex SHA-256 over the payload's compact JSON encoding.
const sealVersion = 1

// ErrCorruptArtifact marks a persisted artifact whose content checksum did
// not verify: the file was torn, bit-flipped, or hand-edited since it was
// sealed. Callers distinguish it from ordinary parse or identity errors
// with errors.Is, because the right reaction differs — corrupted resumable
// state is quarantined and re-derived (the engine's determinism makes
// re-execution safe), never loaded.
var ErrCorruptArtifact = errors.New("campaign: artifact failed integrity check")

// sealedEnvelope is the on-disk integrity wrapper: a version tag, the
// checksum algorithm, the hex digest of the payload's compact encoding, and
// the payload itself.
type sealedEnvelope struct {
	Sealed  int             `json:"sealed"`
	Algo    string          `json:"algo"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// SumJSON returns the hex SHA-256 of v's compact canonical JSON encoding —
// the content identity the integrity envelope and the distributed audit
// pass both compare. encoding/json sorts map keys, so the digest is a pure
// function of the value, not of map iteration or source formatting.
func SumJSON(v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("campaign: sum: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// sumRaw digests an already-encoded payload, compacting first so the digest
// matches SumJSON regardless of the indentation the envelope was stored with.
func sumRaw(raw json.RawMessage) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// AtomicWriteSealedJSON writes v through AtomicWriteJSON wrapped in the
// content-checksum envelope. Readers go through OpenSealedJSON (or
// LoadCheckpoint), which verifies the digest before trusting a byte of the
// payload.
func AtomicWriteSealedJSON(path string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: encode %s: %w", filepath.Base(path), err)
	}
	sum := sha256.Sum256(payload)
	return AtomicWriteJSON(path, &sealedEnvelope{
		Sealed:  sealVersion,
		Algo:    "sha256",
		Sum:     hex.EncodeToString(sum[:]),
		Payload: payload,
	})
}

// OpenSealedJSON parses blob as a sealed envelope, verifies the checksum, and
// unmarshals the payload into v. Anything that is not a valid envelope with a
// matching digest — including a bare payload stripped of its envelope, which
// every writer seals — returns an error satisfying
// errors.Is(err, ErrCorruptArtifact): unverifiable state is never loaded.
func OpenSealedJSON(blob []byte, v any) error {
	var env sealedEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return fmt.Errorf("%w: not a sealed envelope: %v", ErrCorruptArtifact, err)
	}
	if env.Sealed == 0 {
		return fmt.Errorf("%w: no integrity envelope", ErrCorruptArtifact)
	}
	if env.Sealed != sealVersion {
		return fmt.Errorf("campaign: artifact sealed with envelope version %d, want %d", env.Sealed, sealVersion)
	}
	if env.Algo != "sha256" {
		return fmt.Errorf("campaign: artifact sealed with unknown algorithm %q", env.Algo)
	}
	sum, err := sumRaw(env.Payload)
	if err != nil {
		return fmt.Errorf("%w: payload is not valid JSON: %v", ErrCorruptArtifact, err)
	}
	if sum != env.Sum {
		return fmt.Errorf("%w: payload sha256 %s, envelope says %s", ErrCorruptArtifact, sum, env.Sum)
	}
	return json.Unmarshal(env.Payload, v)
}

// ReadSealedJSON reads path and opens it through OpenSealedJSON.
func ReadSealedJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("campaign: read %s: %w", filepath.Base(path), err)
	}
	if err := OpenSealedJSON(blob, v); err != nil {
		return fmt.Errorf("campaign: parse %s: %w", path, err)
	}
	return nil
}

// AtomicWriteJSON is the checkpoint machinery's durable-write primitive,
// exported for other resumable state (the distributed coordinator's lease
// table rides on it): v is marshalled as indented JSON and published via
// temp file + fsync + rename + directory fsync, so a crash at any point
// leaves either the old file or the complete new one — never a truncated or
// lost one.
func AtomicWriteJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: encode %s: %w", filepath.Base(path), err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("campaign: write %s: %w", filepath.Base(path), err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("campaign: write %s: %w", filepath.Base(path), err)
	}
	if _, err := tmp.Write(blob); err != nil {
		return fail(err)
	}
	// Flush the contents before the rename publishes the name: a crash right
	// after the rename must not be able to surface an empty file.
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("campaign: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("campaign: write %s: %w", filepath.Base(path), err)
	}
	// And fsync the directory so the rename itself is durable.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("campaign: sync directory of %s: %w", filepath.Base(path), err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("campaign: sync directory of %s: %w", filepath.Base(path), err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file written by Save, verifying the
// content-checksum envelope (errors.Is ErrCorruptArtifact when it is missing
// or does not match).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := OpenSealedJSON(blob, &c); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint %s: %w", path, err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d "+
			"(v1 predates quarantine tracking and cursor-derived sampling; v2 predates "+
			"adaptive sampling rounds, so its cursors name different experiments under v3; "+
			"rerun the campaign)",
			path, c.Version, checkpointVersion)
	}
	return &c, nil
}

// Interrupted is returned by Study when its context is cancelled
// mid-campaign. It carries the checkpoint of the completed work; resume by
// passing it (or a reload of Path) via StudyOptions.Resume. It unwraps to
// the context's error, so errors.Is(err, context.Canceled) works.
type Interrupted struct {
	Checkpoint *Checkpoint
	// Path is the file the checkpoint was saved to ("" if no
	// CheckpointPath was configured).
	Path  string
	Cause error
}

func (e *Interrupted) Error() string {
	where := "in memory only"
	if e.Path != "" {
		where = "saved to " + e.Path
	}
	return fmt.Sprintf("campaign: study interrupted after %d experiments (checkpoint %s): %v",
		e.Checkpoint.Experiments, where, e.Cause)
}

func (e *Interrupted) Unwrap() error { return e.Cause }
