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
	if _, err := ParseID("no-such-model"); err == nil {
		t.Error("unknown name should fail")
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
