package distrib

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"

	"fidelity/internal/campaign"
)

// DigestHeader carries the hex SHA-256 of an HTTP body. Both sides of the
// wire protocol set it on everything they send and verify it on everything
// they receive, so a body corrupted in flight — truncated, bit-flipped,
// garbled by a broken proxy — is detected instead of decoded into wrong
// campaign state. Verification failures are deliberately *transient*: the
// server answers 503 (the client's retry loop re-sends the identical
// request) and the client wraps a bad response in transientError (the same
// loop re-issues it). Requests without the header are accepted unverified,
// so pre-digest clients keep working.
const DigestHeader = "X-Fidelity-Digest"

// MaxRequestBytes bounds request and response bodies. The largest legitimate
// body is a final report carrying a full shard checkpoint; 16 MiB is orders
// of magnitude above that, so the cap only bites abuse.
const MaxRequestBytes = 16 << 20

// digestBytes returns the hex SHA-256 of b.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestJSON canonicalizes v (compact json.Marshal form) and digests it.
// Two values digest equal exactly when their canonical JSON is byte-equal,
// which is the same equivalence the conformance suites assert. A shard
// checkpoint's bytes come from its codec directly: json.Marshal would
// re-scan them to compact what is already compact.
func digestJSON(v any) (string, error) {
	var blob []byte
	var err error
	if sc, ok := v.(*campaign.ShardCheckpoint); ok && sc != nil {
		blob, err = sc.AppendJSON(nil)
	} else {
		blob, err = json.Marshal(v)
	}
	if err != nil {
		return "", err
	}
	return digestBytes(blob), nil
}

// withIntegrity wraps h with the coordinator's transport-integrity policy:
// request bodies are capped at MaxRequestBytes, and when the client sent a
// DigestHeader the body is read in full and verified before h sees it. A
// mismatch answers 503 so the worker's transient-retry loop re-sends the
// (uncorrupted) request rather than treating it as a protocol error.
func withIntegrity(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(rw, r.Body, MaxRequestBytes)
		}
		if want := r.Header.Get(DigestHeader); want != "" && r.Body != nil {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(rw, "distrib: read request body: "+err.Error(), http.StatusServiceUnavailable)
				return
			}
			if got := digestBytes(body); got != want {
				http.Error(rw, "distrib: request body digest mismatch (corrupted in transit?); retry", http.StatusServiceUnavailable)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(rw, r)
	})
}
