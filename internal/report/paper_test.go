package report

import (
	"context"
	"strings"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

func TestFITChart(t *testing.T) {
	w, err := model.Build("rnn", numerics.FP16, model.StudySeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Study(context.Background(), accel.NVDLASmall(), w, campaign.StudyOptions{
		Samples: 7, Inputs: 1, Tolerance: 0.1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := FITChart("Fig 4", []*campaign.StudyResult{res}, false)
	s := c.String()
	if !strings.Contains(s, "rnn-lite/FP16") || !strings.Contains(s, "ASIL-D") {
		t.Errorf("chart malformed:\n%s", s)
	}
	p := FITChart("Fig 6", []*campaign.StudyResult{res}, true)
	if !strings.Contains(p.String(), "rnn-lite") {
		t.Error("protected chart malformed")
	}
}

func TestPaperTables(t *testing.T) {
	if !strings.Contains(TableI().String(), "Algorithm 1") {
		t.Error("Table I content")
	}
	cfg := accel.NVDLASmall()
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2 := TableII(cfg, models).String()
	for _, frac := range []string{"2.5%", "4.8%", "16.2%", "21.6%", "37.9%", "5.7%", "11.3%"} {
		if !strings.Contains(t2, frac) {
			t.Errorf("Table II missing %s", frac)
		}
	}
}
