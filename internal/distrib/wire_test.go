package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fidelity/internal/campaign"
	"fidelity/internal/canonjson"
	"fidelity/internal/telemetry"
)

// The hot bodies against their definition: encodeBody is json.Marshal byte
// for byte, decodeReport is json.NewDecoder(body).Decode and decodeReply is
// json.Unmarshal — same value, same error — and every body encodeBody writes
// is read by the fast path.

// inceptionShard is the committed final-round fleet-adaptive checkpoint.
func inceptionShard(t *testing.T) *campaign.ShardCheckpoint {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "inception-final.shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc := new(campaign.ShardCheckpoint)
	if err := json.Unmarshal(blob, sc); err != nil {
		t.Fatal(err)
	}
	return sc
}

func wireBodies(t *testing.T) []any {
	sc := inceptionShard(t)
	tel := &telemetry.Snapshot{Source: "w<1>", ElapsedSec: 1.25, Experiments: 9, PerSec: 7.2,
		Models: map[string]telemetry.OutcomeCounts{"output/psum": {Masked: 3, OutputError: 1}},
		Phases: []telemetry.PhaseSnapshot{{Name: "inject", Seconds: 0.5, Running: true}}}
	lease := &Lease{ID: "lease-12", Shard: 3, TTLMS: 30000, Resume: sc, Audit: true}
	return []any{
		ReportRequest{},
		ReportRequest{Worker: "bench-0", LeaseID: "lease-1", Shard: *sc, Final: true, WantLease: true},
		ReportRequest{Worker: "w<&>\u2028", LeaseID: "l\"1", Shard: campaign.NewShardCheckpoint(2), Exhausted: true,
			Error: "dataset: <bad> & worse", Telemetry: tel},
		ReportRequest{Worker: "w", LeaseID: "l", Shard: *sc, Telemetry: &telemetry.Snapshot{}},
		ReportReply{},
		ReportReply{OK: true},
		ReportReply{Cancel: true, Done: true},
		ReportReply{OK: true, Lease: &Lease{ID: "lease-2", Shard: 0, TTLMS: 1}},
		ReportReply{OK: true, Done: true, Lease: lease},
		LeaseReply{},
		LeaseReply{Done: true},
		LeaseReply{Draining: true, RetryAfterMS: 7500},
		LeaseReply{RetryAfterMS: -1},
		LeaseReply{Lease: lease, Done: true, RetryAfterMS: 2, Draining: true},
		LeaseReply{Lease: &Lease{ID: "é", Shard: -1, TTLMS: -9223372036854775808, Resume: &campaign.ShardCheckpoint{}}},
	}
}

// fresh returns a new zero value of v's type.
func fresh(v any) any { return reflect.New(reflect.TypeOf(v)).Interface() }

func TestWireBodiesMatchStd(t *testing.T) {
	// A new field fails here until its type's appendJSON and read function
	// and wireBodies carry it.
	for typ, n := range map[reflect.Type]int{
		reflect.TypeOf(ReportRequest{}): 8, reflect.TypeOf(ReportReply{}): 4,
		reflect.TypeOf(LeaseReply{}): 4, reflect.TypeOf(Lease{}): 5,
	} {
		if typ.NumField() != n {
			t.Errorf("%v has %d fields, the codec writes %d", typ, typ.NumField(), n)
		}
	}
	// The acceptance and audit digests hash the same bytes.
	for _, sc := range []*campaign.ShardCheckpoint{inceptionShard(t), {}, nil} {
		blob, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		if sum, err := digestJSON(sc); err != nil || sum != digestBytes(blob) {
			t.Fatalf("digestJSON(%v) = %s, %v; want the digest of %s", sc, sum, err, blob)
		}
	}
	for _, v := range wireBodies(t) {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeBody(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%T (%v):\n got  %s\n want %s", v, err, got, want)
		}
		var indented bytes.Buffer
		json.Indent(&indented, want, "", "\t")
		for _, body := range [][]byte{want, indented.Bytes()} {
			r := canonjson.NewReader(body)
			switch v.(type) {
			case ReportRequest:
				readReportRequest(r)
			case ReportReply:
				readReportReply(r)
			case LeaseReply:
				readLeaseReply(r)
			}
			if r.End(); !r.OK() {
				t.Fatalf("the fast path refuses %s", body)
			}
			checkWireDecode(t, v, body)
		}
	}
}

// checkWireDecode decodes body as a v through the wire codec and through
// encoding/json the way the endpoint always did, and wants the same outcome.
func checkWireDecode(t *testing.T, v any, body []byte) {
	t.Helper()
	got, want := fresh(v), fresh(v)
	var errGot, errWant error
	if _, ok := v.(ReportRequest); ok {
		var req ReportRequest
		req, errGot = decodeReport(bytes.NewReader(body))
		got = &req
		errWant = json.NewDecoder(bytes.NewReader(body)).Decode(want)
	} else {
		errGot = decodeReply(body, got)
		errWant = json.Unmarshal(body, want)
	}
	if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
		t.Fatalf("%T from %q: codec says %v, encoding/json says %v", v, body, errGot, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\n codec         %+v\n encoding/json %+v", v, body, got, want)
	}
}

// Bodies off the canonical form decode as encoding/json decodes them: the
// report endpoint keeps the decoder's rule (trailing bytes ignored), a reply
// keeps Unmarshal's (trailing bytes refused).
func TestWireDecodeFallback(t *testing.T) {
	sc, err := json.Marshal(inceptionShard(t))
	if err != nil {
		t.Fatal(err)
	}
	report := `{"worker":"w","lease_id":"l","shard":` + string(sc) + `,"final":true}`
	for _, body := range []string{
		"", " ", "null", "{}", "[]", `"x"`, "{", report[:len(report)-1],
		report + " trailing", report + "}", report + `{"worker":"x"}`, "\ufeff" + report,
		strings.Replace(report, `"worker":"w",`, `"worker":"w","worker":"v",`, 1),
		strings.Replace(report, `"worker":"w",`, `"Worker":"w",`, 1),
		strings.Replace(report, `"worker":"w","lease_id":"l",`, `"lease_id":"l","worker":"w",`, 1),
		strings.Replace(report, `"final":true`, `"final":true,"telemetry":null`, 1),
		strings.Replace(report, `"final":true`, `"final":true,"telemetry":{"experiments":"9"}`, 1),
		strings.Replace(report, `"final":true`, `"final":true,"telemetry":{"experiments":9,}`, 1),
		strings.Replace(report, `"final":true`, `"final":true,"extra":1`, 1),
		strings.Replace(report, `"final":true`, `"final":1`, 1),
		strings.Replace(report, `"shard":{`, `"shard":null,"shard":{`, 1),
		strings.Replace(report, `"lease_id":"l"`, `"lease_id":"l\u0026\ud800"`, 1),
	} {
		checkWireDecode(t, ReportRequest{}, []byte(body))
	}
	lease := `{"id":"lease-3","shard":1,"ttl_ms":30000,"resume":` + string(sc) + `}`
	for _, body := range []string{
		"", "null", "{}", `{"ok":true}`, `{"ok":true} `, `{"ok":true}x`, `{"ok":true}{}`, `{"ok":1}`,
		`{"ok":true,"lease":` + lease + `}`, `{"lease":` + lease + `,"ok":true}`,
		`{"ok":true,"lease":null}`, `{"ok":true,"lease":{}}`, `{"lease":` + lease + `,"done":true,"draining":true}`,
		`{"retry_after_ms":1.5}`, `{"retry_after_ms":99999999999999999999}`, `{"done":true,"done":false}`,
		`{"ok":true,"lease":` + strings.Replace(lease, `"ttl_ms":30000`, `"ttl_ms":30000,"ttl_ms":1`, 1) + `}`,
	} {
		checkWireDecode(t, ReportReply{}, []byte(body))
		checkWireDecode(t, LeaseReply{}, []byte(body))
	}

	// A reply decoded into a value that already holds state merges the way
	// encoding/json merges.
	got, want := &ReportReply{OK: true, Lease: &Lease{ID: "old", Audit: true}}, &ReportReply{OK: true, Lease: &Lease{ID: "old", Audit: true}}
	body := []byte(`{"ok":false,"lease":{"id":"new","shard":2,"ttl_ms":5}}`)
	if errGot, errWant := decodeReply(body, got), json.Unmarshal(body, want); errGot != nil || errWant != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("merge: codec %+v (%v), encoding/json %+v (%v)", got.Lease, errGot, want.Lease, errWant)
	}

	// A body whose read fails part-way (the size cap) meets the decoder with
	// the same bytes and the same error.
	cut := errors.New("http: request body too large")
	for _, prefix := range []string{report[:40], report + " tail"} {
		_, errGot := decodeReport(io.MultiReader(strings.NewReader(prefix), errReader{cut}))
		var req ReportRequest
		errWant := json.NewDecoder(io.MultiReader(strings.NewReader(prefix), errReader{cut})).Decode(&req)
		if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
			t.Fatalf("cut body %q: codec says %v, encoding/json says %v", prefix, errGot, errWant)
		}
	}
}
