package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fidelity/internal/canonjson"
	"fidelity/internal/faultmodel"
)

// The shard checkpoint codec against its definition, encoding/json on the
// plain type (shardCheckpointJSON): the same bytes out, the same value or
// the same error in, and every canonical encoding read by the fast path.

// inceptionShard is a final-round checkpoint of the fleet-adaptive campaign
// (inception, INT8, per-layer, TargetCI 0.1, seed 1, shard 0 of 16), as the
// engine wrote it: 14 per-layer tally maps and a 3×85 allocation history.
func inceptionShard(tb testing.TB) []byte {
	tb.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "distrib", "testdata", "inception-final.shard.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// stdMarshal is the definition of the bytes.
func stdMarshal(sc ShardCheckpoint) ([]byte, []byte, error) {
	compact, err := json.Marshal((*shardCheckpointJSON)(&sc))
	if err != nil {
		return nil, nil, err
	}
	indented, err := json.MarshalIndent((*shardCheckpointJSON)(&sc), "", " ")
	return compact, indented, err
}

// checkEncoding holds AppendJSON, and its indented form, to Marshal and
// MarshalIndent of the plain type, and — when every tally key is a known
// model — the fast path to reading the result back as encoding/json does.
func checkEncoding(t *testing.T, sc ShardCheckpoint) {
	t.Helper()
	want, wantIndent, err := stdMarshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.AppendJSON([]byte("prefix"))
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON (%v):\n got  %s\n want prefix%s", err, got, want)
	}
	var gotIndent bytes.Buffer
	if err := json.Indent(&gotIndent, got[len("prefix"):], "", " "); err != nil || !bytes.Equal(gotIndent.Bytes(), wantIndent) {
		t.Fatalf("indented (%v):\n got  %s\n want %s", err, gotIndent.Bytes(), wantIndent)
	}
	if !knownModels(sc.Masked) {
		return
	}
	for _, m := range sc.PerLayer {
		if !knownModels(m) {
			return
		}
	}
	for _, blob := range [][]byte{want, wantIndent} {
		r := canonjson.NewReader(blob)
		var fast ShardCheckpoint
		fast.ReadJSON(r)
		if r.End(); !r.OK() {
			t.Fatalf("the fast path refuses the canonical encoding %s", blob)
		}
		var plain shardCheckpointJSON
		if err := json.Unmarshal(blob, &plain); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ShardCheckpoint(plain)) {
			t.Fatalf("fast path read %s as\n %#v\n encoding/json as\n %#v", blob, fast, plain)
		}
	}
}

// checkDecoding decodes data through the codec and through encoding/json on
// the plain type, into a zero value and into a copy of into, and wants the
// same value and the same error text.
func checkDecoding(t *testing.T, data []byte, into ShardCheckpoint) {
	t.Helper()
	for _, start := range []ShardCheckpoint{{}, into} {
		// Each side gets its own deep copy: encoding/json merges into maps.
		var got, want ShardCheckpoint
		if blob, err := json.Marshal((*shardCheckpointJSON)(&start)); err != nil {
			t.Fatal(err)
		} else if json.Unmarshal(blob, (*shardCheckpointJSON)(&got)) != nil || json.Unmarshal(blob, (*shardCheckpointJSON)(&want)) != nil {
			t.Fatal("copying the starting value")
		}
		errGot := json.Unmarshal(data, &got)
		errWant := json.Unmarshal(data, (*shardCheckpointJSON)(&want))
		if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
			t.Fatalf("decoding %q: codec says %v, encoding/json says %v", data, errGot, errWant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoding %q:\n codec         %#v\n encoding/json %#v", data, got, want)
		}
	}
}

// genCheckpoint builds a checkpoint from fuzz bytes, reaching the shapes
// where the bytes are easy to get wrong: nil and empty maps and slices, nil
// History rows, negative and large counts, models outside AllIDs, and
// quarantine strings encoding/json escapes.
func genCheckpoint(data []byte) ShardCheckpoint {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	num := func() int {
		switch b := next(); b % 8 {
		case 0:
			return -int(next())
		case 1:
			return math.MaxInt - int(next())
		case 2:
			return math.MinInt
		default:
			return int(b)
		}
	}
	strs := []string{"", "panic", "timeout", "a<b", "x&y", "line\u2028sep", `q"uote\`, "\xff\xfe", "tab\t", "détail", "<script>&amp;"}
	str := func() string { return strs[int(next())%len(strs)] }
	cursor := func() Cursor { return Cursor{num(), num(), num(), num()} }
	tallies := func() map[faultmodel.ID]Proportion {
		switch next() % 4 {
		case 0:
			return nil
		case 1:
			return map[faultmodel.ID]Proportion{}
		}
		m := map[faultmodel.ID]Proportion{}
		for n := int(next() % 9); n > 0; n-- {
			id := faultmodel.ID(next() % 7)
			switch next() { // rarely, a model outside AllIDs
			case 0xfe:
				id = 7
			case 0xff:
				id = -1
			}
			m[id] = Proportion{num(), num()}
		}
		return m
	}
	sc := ShardCheckpoint{Index: num(), Done: next()%2 == 1, Cursor: cursor(), Experiments: num(), Masked: tallies()}
	switch n := int(next() % 5); n {
	case 0:
	case 1:
		sc.PerLayer = []map[faultmodel.ID]Proportion{}
	default:
		for ; n > 1; n-- {
			sc.PerLayer = append(sc.PerLayer, tallies())
		}
	}
	sc.Perturb = PerturbationStats{Proportion{num(), num()}, Proportion{num(), num()}}
	switch n := int(next() % 4); n {
	case 0:
	case 1:
		sc.Quarantine = []QuarantinedExperiment{}
	default:
		for ; n > 1; n-- {
			sc.Quarantine = append(sc.Quarantine, QuarantinedExperiment{num(), cursor(), str(), str(), str()})
		}
	}
	if next()%2 == 1 {
		a := &AdaptiveShardState{Round: num(), Final: next()%2 == 1}
		switch n := int(next() % 5); n {
		case 0:
		case 1:
			a.History = [][]int{}
		default:
			for ; n > 1; n-- {
				switch next() % 3 {
				case 0:
					a.History = append(a.History, nil)
				case 1:
					a.History = append(a.History, []int{})
				default:
					a.History = append(a.History, []int{num(), num(), num()})
				}
			}
		}
		sc.Adaptive = a
	}
	return sc
}

// codecFields is the field count of every type the codec writes by hand. A
// new field fails here until AppendJSON, ReadJSON, isZero and genCheckpoint
// carry it.
var codecFields = map[reflect.Type]int{
	reflect.TypeOf(ShardCheckpoint{}):       9,
	reflect.TypeOf(Cursor{}):                4,
	reflect.TypeOf(Proportion{}):            2,
	reflect.TypeOf(PerturbationStats{}):     2,
	reflect.TypeOf(QuarantinedExperiment{}): 5,
	reflect.TypeOf(AdaptiveShardState{}):    3,
}

func TestShardCheckpointJSON(t *testing.T) {
	for typ, n := range codecFields {
		if typ.NumField() != n {
			t.Errorf("%v has %d fields, the codec writes %d", typ, typ.NumField(), n)
		}
	}
	blob := inceptionShard(t)
	var sc ShardCheckpoint
	if err := json.Unmarshal(blob, &sc); err != nil {
		t.Fatal(err)
	}
	if again, err := sc.AppendJSON(nil); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("the committed checkpoint re-encodes differently (%v)", err)
	}
	checkEncoding(t, sc)
	checkEncoding(t, NewShardCheckpoint(3))
	checkEncoding(t, ShardCheckpoint{})
	checkEncoding(t, ShardCheckpoint{
		Masked:     map[faultmodel.ID]Proportion{faultmodel.GlobalControl: {-1, 2}, faultmodel.BeforeCBUFInput: {}},
		PerLayer:   []map[faultmodel.ID]Proportion{nil, {}},
		Quarantine: []QuarantinedExperiment{{Model: "<m>", Reason: "&", Detail: "a<b&c\u2028d\xff"}, {Detail: ""}},
		Adaptive:   &AdaptiveShardState{History: [][]int{nil, {}, {1, -2}}},
	})
	for seed := byte(0); seed < 64; seed++ {
		checkEncoding(t, genCheckpoint([]byte{seed, seed * 7, seed * 13, 1, 2, 3, seed, 9, 4, 4, 3, seed * 3, 2, 1, 5, 6, 7, 8, 9, 10, 3, 3, 3, 1, 3, 2}))
	}
	fb := []byte{}
	for i := 0; i < 400; i++ {
		fb = append(fb, byte(i*37+i/3))
		checkEncoding(t, genCheckpoint(fb))
	}
	for _, data := range decodeSeeds(blob) {
		checkDecoding(t, data, mergeTarget())
	}
}

// mergeTarget is a receiver already holding state in every member
// encoding/json merges into or leaves alone when the input omits it.
func mergeTarget() ShardCheckpoint {
	return ShardCheckpoint{
		Index: 9, Done: true, Cursor: Cursor{1, 2, 3, 4}, Experiments: 5,
		Masked:     map[faultmodel.ID]Proportion{faultmodel.GlobalControl: {1, 2}},
		PerLayer:   []map[faultmodel.ID]Proportion{{faultmodel.LocalControl: {3, 4}}, nil},
		Quarantine: []QuarantinedExperiment{{Shard: 1, Model: "m", Reason: ReasonPanic}},
		Adaptive:   &AdaptiveShardState{Round: 1, History: [][]int{{5, 6}, nil}},
	}
}

// decodeSeeds is the committed checkpoint and the ways an input can leave
// the canonical form: each must decode exactly as encoding/json decodes it.
func decodeSeeds(blob []byte) [][]byte {
	var indented bytes.Buffer
	json.Indent(&indented, blob, "\t", "  ")
	edit := func(old, new string) []byte { return bytes.Replace(blob, []byte(old), []byte(new), 1) }
	return [][]byte{
		blob,
		indented.Bytes(),
		append(append([]byte(" \n"), blob...), "\r\n\t"...),
		[]byte("null"),
		[]byte("{}"),
		[]byte(`{"index":1}`),
		[]byte(`[]`),
		[]byte(`"x"`),
		edit(`{"index":0,`, `{"index":0,"index":5,`),
		edit(`"done":true,`, `"done":true,"done":false,`),
		edit(`"done":true,`, `"done":false,`),
		edit(`"done":true,`, `"done":null,`),
		edit(`"done":true,`, ``),
		edit(`"cursor":{"input":2,`, `"cursor":{"Input":2,`),
		edit(`"experiments":218,`, `"experiments":218,"unknown":[1,{"a":null}],`),
		edit(`"experiments":218,`, `"experiments":218.0,`),
		edit(`"experiments":218,`, `"experiments":2.18e2,`),
		edit(`"experiments":218,`, `"experiments":-0,`),
		edit(`"experiments":218,`, `"experiments":99999999999999999999,`),
		edit(`"experiments":218,`, `"experiments":"218",`),
		edit(`"experiments":218,`, `"experiments":null,`),
		edit(`"masked":{"beforeCBUF/input"`, `"masked":{"beforeCBUF/inpu\u0074"`),
		edit(`"masked":{"beforeCBUF/input"`, `"masked":{"no-such-model"`),
		edit(`"masked":{"beforeCBUF/input":{"Successes":32,"Trials":34},"beforeCBUF/weight"`, `"masked":{"beforeCBUF/weight"`),
		edit(`"masked":{"beforeCBUF/input":{"Successes":32,"Trials":34},"beforeCBUF/weight":{"Successes":43,"Trials":50},`, `"masked":{"beforeCBUF/weight":{"Successes":43,"Trials":50},"beforeCBUF/input":{"Successes":32,"Trials":34},`),
		edit(`"masked":{"beforeCBUF/input":{"Successes":32,"Trials":34},`, `"masked":{"beforeCBUF/input":{"Successes":32,"Trials":34},"beforeCBUF/input":{"Trials":9},`),
		edit(`"masked":{"beforeCBUF/input":{"Successes":32,`, `"masked":{"beforeCBUF/input":{"successes":32,`),
		edit(`"masked":{`, `"masked":{"local-control":{"Successes":1,"Trials":1}},"masked":{`),
		edit(`"masked":{`, `"masked":null,"masked":{`),
		edit(`,"per_layer":[`, `,"masked":{"beforeCBUF/input":{"Successes":1,"Trials":1}},"per_layer":[`),
		edit(`"per_layer":[`, `"per_layer":[null,{},`),
		edit(`"per_layer":[`, `"per_layer":[],"per_layer":[`),
		edit(`"perturb":{"SmallFail"`, `"perturb":{"LargeFail":{"Successes":1,"Trials":1},"SmallFail"`),
		edit(`"adaptive":{"round":3,`, `"adaptive":null,"adaptive":{"round":3,`),
		edit(`"adaptive":{"round":3,`, `"quarantine":[],"adaptive":{"round":3,`),
		edit(`"adaptive":{"round":3,`, `"quarantine":[{"shard":1,"cursor":{"input":0,"model":1,"exec":2,"sample":3},"model":"output/psum","reason":"panic","detail":"a\u003cb\u2028\ud800"}],"adaptive":{"round":3,`),
		edit(`"adaptive":{"round":3,`, `"quarantine":[null],"adaptive":{"round":3,`),
		edit(`"history":[[`, `"history":[null,[],[`),
		edit(`"history":[[`, `"history":[[-3],`),
		edit(`"final":true`, `"final":true,"round":7`),
		append(append([]byte{}, blob...), "x"...),
		blob[:len(blob)-1],
	}
}

// FuzzShardCheckpointJSON: on arbitrary bytes the codec and encoding/json on
// the plain type agree on accept/reject, the decoded value and the error
// text; on values generated from the bytes, AppendJSON and its indented form
// are Marshal and MarshalIndent of the plain type byte for byte.
func FuzzShardCheckpointJSON(f *testing.F) {
	blob := inceptionShard(f)
	for _, seed := range decodeSeeds(blob) {
		f.Add(seed)
	}
	into := mergeTarget()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoding(t, data, into)
		checkEncoding(t, genCheckpoint(data))
	})
}

// BenchmarkShardCheckpointJSON times one crossing of the committed
// checkpoint each way. std is encoding/json on the plain type: the bytes'
// definition, and what every crossing cost before the codec. codec is
// AppendJSON and UnmarshalJSON called directly, as the wire and the digests
// call them. via-json/decode is json.Unmarshal of the type, as checkpoint
// and state files are read: the codec after encoding/json's validity scan.
func BenchmarkShardCheckpointJSON(b *testing.B) {
	blob := inceptionShard(b)
	var sc ShardCheckpoint
	if err := json.Unmarshal(blob, &sc); err != nil {
		b.Fatal(err)
	}
	plain := shardCheckpointJSON(sc)
	for _, bench := range []struct {
		name string
		run  func() error
	}{
		{"std/encode", func() error { _, err := json.Marshal(&plain); return err }},
		{"std/decode", func() error { return json.Unmarshal(blob, new(shardCheckpointJSON)) }},
		{"codec/encode", func() error { _, err := sc.AppendJSON(nil); return err }},
		{"codec/decode", func() error { return new(ShardCheckpoint).UnmarshalJSON(blob) }},
		{"via-json/decode", func() error { return json.Unmarshal(blob, new(ShardCheckpoint)) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				if err := bench.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
