package campaign

import (
	"encoding/json"
	"slices"
	"strings"

	"fidelity/internal/canonjson"
	"fidelity/internal/faultmodel"
)

// A ShardCheckpoint crosses JSON on every lease — the worker's final report,
// the next lease's Resume, the acceptance and audit digests — so it is
// written (AppendJSON) and read (UnmarshalJSON, ReadJSON) without
// reflection. encoding/json on shardCheckpointJSON (the same struct without
// these methods) is the definition of the bytes and the decoder's fallback
// (DESIGN.md §9.5).
//
// There is no MarshalJSON: encoding/json compacts a Marshaler's output, a
// second scan that costs more than the reflection it would replace. So
// json.Marshal (checkpoint and state files) keeps reflecting, and the
// callers that encode per lease call AppendJSON.

// shardCheckpointJSON is ShardCheckpoint without its codec.
type shardCheckpointJSON ShardCheckpoint

// idsByName lists every fault model in the order encoding/json writes a
// tally map: sorted by MarshalText.
var idsByName = func() []faultmodel.ID {
	ids := faultmodel.AllIDs()
	slices.SortFunc(ids, func(a, b faultmodel.ID) int { return strings.Compare(a.String(), b.String()) })
	return ids
}()

// AppendJSON appends json.Marshal's bytes for sc to b. A tally map holding a
// model outside faultmodel.AllIDs() goes through encoding/json.
func (sc ShardCheckpoint) AppendJSON(b []byte) ([]byte, error) {
	if !knownModels(sc.Masked) || slices.ContainsFunc(sc.PerLayer, func(m map[faultmodel.ID]Proportion) bool { return !knownModels(m) }) {
		plain, err := json.Marshal((*shardCheckpointJSON)(&sc))
		return append(b, plain...), err
	}
	b = append(b, `{"index":`...)
	b = canonjson.AppendInt(b, sc.Index)
	if sc.Done {
		b = append(b, `,"done":true`...)
	}
	b = append(b, `,"cursor":`...)
	b = sc.Cursor.appendJSON(b)
	b = append(b, `,"experiments":`...)
	b = canonjson.AppendInt(b, sc.Experiments)
	b = append(b, `,"masked":`...)
	b = appendTallies(b, sc.Masked)
	if len(sc.PerLayer) > 0 {
		b = append(b, `,"per_layer":[`...)
		for i, m := range sc.PerLayer {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendTallies(b, m)
		}
		b = append(b, ']')
	}
	b = append(b, `,"perturb":{"SmallFail":`...)
	b = sc.Perturb.SmallFail.appendJSON(b)
	b = append(b, `,"LargeFail":`...)
	b = sc.Perturb.LargeFail.appendJSON(b)
	b = append(b, '}')
	if len(sc.Quarantine) > 0 {
		b = append(b, `,"quarantine":[`...)
		for i, q := range sc.Quarantine {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"shard":`...)
			b = canonjson.AppendInt(b, q.Shard)
			b = append(b, `,"cursor":`...)
			b = q.Cursor.appendJSON(b)
			b = append(b, `,"model":`...)
			b = canonjson.AppendString(b, q.Model)
			b = append(b, `,"reason":`...)
			b = canonjson.AppendString(b, q.Reason)
			if q.Detail != "" {
				b = append(b, `,"detail":`...)
				b = canonjson.AppendString(b, q.Detail)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if a := sc.Adaptive; a != nil {
		b = append(b, `,"adaptive":{"round":`...)
		b = canonjson.AppendInt(b, a.Round)
		if len(a.History) > 0 {
			b = append(b, `,"history":[`...)
			for i, row := range a.History {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendInts(b, row)
			}
			b = append(b, ']')
		}
		if a.Final {
			b = append(b, `,"final":true`...)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// knownModels reports whether every key of m is one of faultmodel.AllIDs().
func knownModels(m map[faultmodel.ID]Proportion) bool {
	for id := range m {
		if id < 0 || int(id) >= len(idsByName) {
			return false
		}
	}
	return true
}

func appendTallies(b []byte, m map[faultmodel.ID]Proportion) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, '{')
	n := 0
	for _, id := range idsByName {
		p, ok := m[id]
		if !ok {
			continue
		}
		if n++; n > 1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, id.String()...)
		b = append(b, `":`...)
		b = p.appendJSON(b)
	}
	return append(b, '}')
}

func appendInts(b []byte, row []int) []byte {
	if row == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		b = canonjson.AppendInt(b, v)
	}
	return append(b, ']')
}

func (p Proportion) appendJSON(b []byte) []byte {
	b = append(b, `{"Successes":`...)
	b = canonjson.AppendInt(b, p.Successes)
	b = append(b, `,"Trials":`...)
	b = canonjson.AppendInt(b, p.Trials)
	return append(b, '}')
}

func (c Cursor) appendJSON(b []byte) []byte {
	b = append(b, `{"input":`...)
	b = canonjson.AppendInt(b, c.Input)
	b = append(b, `,"model":`...)
	b = canonjson.AppendInt(b, c.Model)
	b = append(b, `,"exec":`...)
	b = canonjson.AppendInt(b, c.Exec)
	b = append(b, `,"sample":`...)
	b = canonjson.AppendInt(b, c.Sample)
	return append(b, '}')
}

// UnmarshalJSON decodes data as json.Unmarshal decodes it into the plain
// type. The canonical form, whitespace allowed, is read in one pass into a
// zero receiver; any other input, or a receiver already holding state for
// encoding/json to merge into, goes through encoding/json.
func (sc *ShardCheckpoint) UnmarshalJSON(data []byte) error {
	if sc.isZero() {
		r := canonjson.NewReader(data)
		var fresh ShardCheckpoint
		fresh.ReadJSON(r)
		if r.End(); r.OK() {
			*sc = fresh
			return nil
		}
	}
	return json.Unmarshal(data, (*shardCheckpointJSON)(sc))
}

func (sc *ShardCheckpoint) isZero() bool {
	return sc.Index == 0 && !sc.Done && sc.Cursor == Cursor{} && sc.Experiments == 0 &&
		sc.Masked == nil && sc.PerLayer == nil && sc.Perturb == PerturbationStats{} &&
		sc.Quarantine == nil && sc.Adaptive == nil
}

// ReadJSON reads one checkpoint in canonical form from r into the zero
// checkpoint sc. When the input deviates from that form r fails, and sc
// holds a partial value the caller discards before decoding the input with
// encoding/json.
func (sc *ShardCheckpoint) ReadJSON(r *canonjson.Reader) {
	r.Delim('{')
	r.Need("index")
	sc.Index = r.Int()
	if r.Field("done") {
		sc.Done = r.Bool()
	}
	r.Need("cursor")
	sc.Cursor = readCursor(r)
	r.Need("experiments")
	sc.Experiments = r.Int()
	r.Need("masked")
	sc.Masked = readTallies(r)
	if r.Field("per_layer") {
		r.Delim('[')
		sc.PerLayer = []map[faultmodel.ID]Proportion{}
		for r.More(']') {
			sc.PerLayer = append(sc.PerLayer, readTallies(r))
		}
		r.Delim(']')
	}
	r.Need("perturb")
	r.Delim('{')
	r.Need("SmallFail")
	sc.Perturb.SmallFail = readProportion(r)
	r.Need("LargeFail")
	sc.Perturb.LargeFail = readProportion(r)
	r.Delim('}')
	if r.Field("quarantine") {
		r.Delim('[')
		sc.Quarantine = []QuarantinedExperiment{}
		for r.More(']') {
			var q QuarantinedExperiment
			r.Delim('{')
			r.Need("shard")
			q.Shard = r.Int()
			r.Need("cursor")
			q.Cursor = readCursor(r)
			r.Need("model")
			q.Model = r.Str()
			r.Need("reason")
			q.Reason = r.Str()
			if r.Field("detail") {
				q.Detail = r.Str()
			}
			r.Delim('}')
			sc.Quarantine = append(sc.Quarantine, q)
		}
		r.Delim(']')
	}
	if r.Field("adaptive") {
		a := &AdaptiveShardState{}
		r.Delim('{')
		r.Need("round")
		a.Round = r.Int()
		if r.Field("history") {
			r.Delim('[')
			a.History = [][]int{}
			for r.More(']') {
				a.History = append(a.History, readInts(r))
			}
			r.Delim(']')
		}
		if r.Field("final") {
			a.Final = r.Bool()
		}
		r.Delim('}')
		sc.Adaptive = a
	}
	r.Delim('}')
}

// readTallies reads a tally map keyed by known model names. Like
// encoding/json it assigns members in input order into a fresh map, so any
// key order, or a repeated key, yields encoding/json's map.
func readTallies(r *canonjson.Reader) map[faultmodel.ID]Proportion {
	if r.Null() {
		return nil
	}
	m := make(map[faultmodel.ID]Proportion, len(idsByName))
	r.Delim('{')
	for r.More('}') {
		var id faultmodel.ID
		if id.UnmarshalText(r.Key()) != nil {
			r.Fail()
			break
		}
		m[id] = readProportion(r)
	}
	r.Delim('}')
	return m
}

func readInts(r *canonjson.Reader) []int {
	if r.Null() {
		return nil
	}
	row := []int{}
	r.Delim('[')
	for r.More(']') {
		row = append(row, r.Int())
	}
	r.Delim(']')
	return row
}

func readProportion(r *canonjson.Reader) (p Proportion) {
	r.Delim('{')
	r.Need("Successes")
	p.Successes = r.Int()
	r.Need("Trials")
	p.Trials = r.Int()
	r.Delim('}')
	return p
}

func readCursor(r *canonjson.Reader) (c Cursor) {
	r.Delim('{')
	r.Need("input")
	c.Input = r.Int()
	r.Need("model")
	c.Model = r.Int()
	r.Need("exec")
	c.Exec = r.Int()
	r.Need("sample")
	c.Sample = r.Int()
	r.Delim('}')
	return c
}
