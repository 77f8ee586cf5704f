package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunNoiseAblation(t *testing.T) {
	inst, err := Setup(smallDOAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	abl, err := RunNoiseAblationContext(context.Background(), inst, []float64{0, 0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Rows) != 3 {
		t.Fatalf("rows = %d", len(abl.Rows))
	}
	clean := abl.Rows[0]
	if clean.Noise != 0 {
		t.Fatalf("first row noise = %v", clean.Noise)
	}
	// With the detector's own map, SCBG protects (nearly) every true end.
	if frac := float64(clean.TrueEndsInfected) / float64(abl.TrueEnds); frac > 0.25 {
		t.Fatalf("clean map lost %.0f%% of true ends", frac*100)
	}
	// Heavy noise must not *improve* protection relative to the clean map
	// (allow equality: tiny instances can saturate).
	heavy := abl.Rows[len(abl.Rows)-1]
	if heavy.TrueEndsInfected < clean.TrueEndsInfected {
		t.Fatalf("noise improved protection: %d lost at 80%% vs %d clean",
			heavy.TrueEndsInfected, clean.TrueEndsInfected)
	}

	var buf bytes.Buffer
	if err := WriteNoiseAblation(&buf, abl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"community-noise robustness", "noise", "true ends lost", "80%"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunNoiseAblationValidation(t *testing.T) {
	inst, err := Setup(smallDOAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNoiseAblationContext(context.Background(), inst, []float64{1.5}); err == nil {
		t.Fatal("noise > 1 accepted")
	}
	if _, err := RunNoiseAblationContext(context.Background(), inst, []float64{-0.1}); err == nil {
		t.Fatal("negative noise accepted")
	}
}
