package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The file decoders, fuzzed from committed corpora of real artifacts (a fixed
// and an adaptive v3 checkpoint) and of the ways they go bad on disk: the
// envelope stripped, a wrong sum, an older format version, truncation. A
// blob is either restored or rejected with a diagnosable error — never a
// panic, never a half-loaded state.

// rejectedCleanly reports whether err is one of the decoders' documented
// refusals: failed integrity, an envelope or checkpoint format this build
// does not read, or a correctly sealed payload of the wrong shape.
func rejectedCleanly(err error) bool {
	var shape *json.UnmarshalTypeError
	return errors.Is(err, ErrCorruptArtifact) || errors.As(err, &shape) ||
		strings.Contains(err.Error(), "version") || strings.Contains(err.Error(), "unknown algorithm")
}

func FuzzOpenSealedJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		var payload json.RawMessage
		err := OpenSealedJSON(blob, &payload)
		if err != nil {
			if !rejectedCleanly(err) {
				t.Fatalf("rejected with an undocumented error: %v", err)
			}
			return
		}
		// Accepted: the envelope must say what an independent reading says.
		var env struct {
			Sum     string
			Payload json.RawMessage
		}
		var compact bytes.Buffer
		if err := json.Unmarshal(blob, &env); err != nil {
			t.Fatalf("accepted a blob that is not JSON: %v", err)
		}
		if err := json.Compact(&compact, env.Payload); err != nil {
			t.Fatalf("accepted a payload that is not JSON: %v", err)
		}
		sum := sha256.Sum256(compact.Bytes())
		if hex.EncodeToString(sum[:]) != env.Sum || !bytes.Equal(payload, env.Payload) {
			t.Fatalf("accepted payload %q under sum %s", payload, env.Sum)
		}
	})
}

func FuzzLoadCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), "ck.json")
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o600); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			if cp != nil || !rejectedCleanly(err) {
				t.Fatalf("rejected with checkpoint %v and an undocumented error: %v", cp, err)
			}
			return
		}
		if cp.Version != checkpointVersion {
			t.Fatalf("restored a version-%d checkpoint", cp.Version)
		}
		// Restored: saving it again must seal the same content.
		var env struct{ Sum string }
		if err := json.Unmarshal(blob, &env); err != nil {
			t.Fatal(err)
		}
		if sum, err := SumJSON(cp); err != nil || sum != env.Sum {
			t.Fatalf("restored checkpoint re-seals to %s (%v), file was sealed as %s", sum, err, env.Sum)
		}
	})
}

// TestCheckpointCorpusRestores: the committed seeds named ok-* are files this
// engine wrote. They must keep loading — a seed that starts bouncing is a
// broken file format, not a stale corpus — and every other seed must bounce.
func TestCheckpointCorpusRestores(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzLoadCheckpoint", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzLoadCheckpoint seeds (%v)", err)
	}
	restored := 0
	for _, seed := range seeds {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, readSeed(t, seed), 0o600); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if ok := strings.HasPrefix(filepath.Base(seed), "ok-"); ok != (err == nil) {
			t.Errorf("%s: LoadCheckpoint = %v, %v", seed, cp, err)
		} else if ok {
			restored++
		}
	}
	if restored < 2 {
		t.Errorf("only %d ok-* seeds restored, want the fixed and the adaptive checkpoint", restored)
	}
}

// readSeed parses one committed single-[]byte corpus file.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
