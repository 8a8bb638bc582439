package faultmodel

import (
	"encoding/json"
	"testing"

	"fidelity/internal/accel"
)

// Two fresh samplers with the same seed draw the same stream.
func TestSamplerDeterminism(t *testing.T) {
	models, err := Derive(accel.NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewSampler(models, 7)
	b, _ := NewSampler(models, 7)
	for i := 0; i < 64; i++ {
		if x, y := a.Rand().Uint64(), b.Rand().Uint64(); x != y {
			t.Fatalf("draw %d: %d vs %d", i, x, y)
		}
	}
}

func TestIDTextMarshal(t *testing.T) {
	for _, id := range AllIDs() {
		b, err := id.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ID
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Errorf("%v round-tripped to %v", id, back)
		}
	}
	for _, id := range AllIDs() {
		if back, err := ParseID(id.String()); err != nil || back != id {
			t.Errorf("ParseID(%q) = %v, %v", id, back, err)
		}
	}
	const unknown = `faultmodel: unknown model name "no-such-model"`
	if _, err := ParseID("no-such-model"); err == nil || err.Error() != unknown {
		t.Errorf("unknown name: %v, want %s", err, unknown)
	}
	var id ID
	if err := id.UnmarshalText([]byte("no-such-model")); err == nil || err.Error() != unknown {
		t.Errorf("unknown text: %v, want %s", err, unknown)
	}
	if _, err := ParseID(ID(7).String()); err == nil || err.Error() != `faultmodel: unknown model name "ID(7)"` {
		t.Errorf("ID(7): %v", err)
	}
	// Every tally key a checkpoint decodes comes through here.
	names := make([][]byte, 0, len(AllIDs()))
	for _, id := range AllIDs() {
		names = append(names, []byte(id.String()))
	}
	if a := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			if id.UnmarshalText(name) != nil {
				t.Fatal(string(name))
			}
		}
	}); a != 0 {
		t.Errorf("UnmarshalText of a known name allocates %.1f times", a)
	}
	// Maps keyed by ID must serialize with readable keys.
	m := map[ID]int{CBUFMACInput: 3, GlobalControl: 1}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back map[ID]int
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back[CBUFMACInput] != 3 || back[GlobalControl] != 1 {
		t.Errorf("map round trip: %v", back)
	}
}
