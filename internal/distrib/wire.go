package distrib

import (
	"bytes"
	"encoding/json"
	"io"

	"fidelity/internal/campaign"
	"fidelity/internal/canonjson"
	"fidelity/internal/telemetry"
)

// The bodies every lease moves — the worker's report, the coordinator's
// report and lease replies, and the Lease with its Resume checkpoint — are
// written and read without reflection. The bytes stay encoding/json's:
// appendJSON equals json.Marshal of the type, and a reader that meets
// anything but that form hands the whole body to encoding/json with the
// acceptance rule the endpoint always had (DESIGN.md §9.5).

// encodeBody is json.Marshal, without reflection for the hot bodies.
func encodeBody(v any) ([]byte, error) {
	if a, ok := v.(interface{ appendJSON([]byte) ([]byte, error) }); ok {
		return a.appendJSON(make([]byte, 0, 512))
	}
	return json.Marshal(v)
}

// decodeReply is json.Unmarshal(body, out), read in one pass when out is a
// zero report or lease reply and body is in canonical form.
func decodeReply(body []byte, out any) error {
	switch o := out.(type) {
	case *ReportReply:
		if *o == (ReportReply{}) {
			r := canonjson.NewReader(body)
			rep := readReportReply(r)
			if r.End(); r.OK() {
				*o = rep
				return nil
			}
		}
	case *LeaseReply:
		if *o == (LeaseReply{}) {
			r := canonjson.NewReader(body)
			rep := readLeaseReply(r)
			if r.End(); r.OK() {
				*o = rep
				return nil
			}
		}
	}
	return json.Unmarshal(body, out)
}

// decodeReport reads a /v1/report body as json.NewDecoder(body).Decode does:
// the first value counts and whatever follows it is ignored.
func decodeReport(body io.Reader) (ReportRequest, error) {
	blob, err := io.ReadAll(body)
	if err == nil {
		r := canonjson.NewReader(blob)
		if req := readReportRequest(r); r.OK() {
			return req, nil
		}
	}
	// The decoder meets the bytes read and then the read's error, as it would
	// have met them on the body itself.
	src := io.Reader(bytes.NewReader(blob))
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	var req ReportRequest
	return req, json.NewDecoder(src).Decode(&req)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func (q ReportRequest) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"worker":`...)
	b = canonjson.AppendString(b, q.Worker)
	b = append(b, `,"lease_id":`...)
	b = canonjson.AppendString(b, q.LeaseID)
	b = append(b, `,"shard":`...)
	b, err := q.Shard.AppendJSON(b)
	if err != nil {
		return nil, err
	}
	b = appendFlag(b, `,"final":true`, q.Final)
	b = appendFlag(b, `,"exhausted":true`, q.Exhausted)
	if q.Error != "" {
		b = append(b, `,"error":`...)
		b = canonjson.AppendString(b, q.Error)
	}
	b = appendFlag(b, `,"want_lease":true`, q.WantLease)
	if q.Telemetry != nil {
		tel, err := json.Marshal(q.Telemetry)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"telemetry":`...)
		b = append(b, tel...)
	}
	return append(b, '}'), nil
}

func readReportRequest(r *canonjson.Reader) (q ReportRequest) {
	r.Delim('{')
	r.Need("worker")
	q.Worker = r.Str()
	r.Need("lease_id")
	q.LeaseID = r.Str()
	r.Need("shard")
	q.Shard.ReadJSON(r)
	if r.Field("final") {
		q.Final = r.Bool()
	}
	if r.Field("exhausted") {
		q.Exhausted = r.Bool()
	}
	if r.Field("error") {
		q.Error = r.Str()
	}
	if r.Field("want_lease") {
		q.WantLease = r.Bool()
	}
	if r.Field("telemetry") {
		q.Telemetry = new(telemetry.Snapshot)
		if obj := r.Object(); r.OK() && json.Unmarshal(obj, q.Telemetry) != nil {
			r.Fail()
		}
	}
	r.Delim('}')
	return q
}

func (p ReportReply) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"ok":`...)
	if p.OK {
		b = append(b, "true"...)
	} else {
		b = append(b, "false"...)
	}
	b = appendFlag(b, `,"cancel":true`, p.Cancel)
	b = appendFlag(b, `,"done":true`, p.Done)
	b, err := appendLease(b, p.Lease)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

func readReportReply(r *canonjson.Reader) (p ReportReply) {
	r.Delim('{')
	r.Need("ok")
	p.OK = r.Bool()
	if r.Field("cancel") {
		p.Cancel = r.Bool()
	}
	if r.Field("done") {
		p.Done = r.Bool()
	}
	p.Lease = readLease(r)
	r.Delim('}')
	return p
}

func (p LeaseReply) appendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, '{')
	b, err := appendLease(b, p.Lease)
	if err != nil {
		return nil, err
	}
	b = appendFlag(b, `,"done":true`, p.Done)
	if p.RetryAfterMS != 0 {
		b = append(b, `,"retry_after_ms":`...)
		b = canonjson.AppendInt(b, p.RetryAfterMS)
	}
	b = appendFlag(b, `,"draining":true`, p.Draining)
	if len(b) > start+1 {
		// Every member went in comma first; the first one takes none.
		b = append(b[:start+1], b[start+2:]...)
	}
	return append(b, '}'), nil
}

func readLeaseReply(r *canonjson.Reader) (p LeaseReply) {
	r.Delim('{')
	p.Lease = readLease(r)
	if r.Field("done") {
		p.Done = r.Bool()
	}
	if r.Field("retry_after_ms") {
		p.RetryAfterMS = r.Int64()
	}
	if r.Field("draining") {
		p.Draining = r.Bool()
	}
	r.Delim('}')
	return p
}

// appendLease appends the optional "lease" member, comma first.
func appendLease(b []byte, l *Lease) ([]byte, error) {
	if l == nil {
		return b, nil
	}
	b = append(b, `,"lease":{"id":`...)
	b = canonjson.AppendString(b, l.ID)
	b = append(b, `,"shard":`...)
	b = canonjson.AppendInt(b, l.Shard)
	b = append(b, `,"ttl_ms":`...)
	b = canonjson.AppendInt(b, l.TTLMS)
	if l.Resume != nil {
		b = append(b, `,"resume":`...)
		var err error
		if b, err = l.Resume.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	b = appendFlag(b, `,"audit":true`, l.Audit)
	return append(b, '}'), nil
}

// readLease reads the optional "lease" member.
func readLease(r *canonjson.Reader) *Lease {
	if !r.Field("lease") {
		return nil
	}
	l := &Lease{}
	r.Delim('{')
	r.Need("id")
	l.ID = r.Str()
	r.Need("shard")
	l.Shard = r.Int()
	r.Need("ttl_ms")
	l.TTLMS = r.Int64()
	if r.Field("resume") {
		l.Resume = &campaign.ShardCheckpoint{}
		l.Resume.ReadJSON(r)
	}
	if r.Field("audit") {
		l.Audit = r.Bool()
	}
	r.Delim('}')
	return l
}

func appendFlag(b []byte, member string, set bool) []byte {
	if set {
		b = append(b, member...)
	}
	return b
}
