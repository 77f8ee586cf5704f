package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lcrb/internal/gen"
)

func TestRunNullModelAblation(t *testing.T) {
	abl, err := RunNullModelAblationContext(context.Background(), smallDOAMConfig(), gen.RewireAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Rows) != 2 {
		t.Fatalf("rows = %d", len(abl.Rows))
	}
	orig, rew := abl.Rows[0], abl.Rows[1]
	if orig.Graph != "original" || rew.Graph != "rewired" {
		t.Fatalf("row labels = %q, %q", orig.Graph, rew.Graph)
	}
	// The rewired graph must have visibly weaker community structure.
	if rew.Modularity >= orig.Modularity {
		t.Fatalf("rewired modularity %.3f not below original %.3f",
			rew.Modularity, orig.Modularity)
	}
	// On the original, SCBG blocking keeps infections far below the open
	// run.
	if orig.InfectedBlocked >= orig.InfectedOpen {
		t.Fatalf("original: blocking did nothing (%d vs %d)",
			orig.InfectedBlocked, orig.InfectedOpen)
	}
	// Without community structure the boundary dissolves: the rewired
	// graph exposes more bridge ends and needs more protector seeds.
	if rew.NumEnds < orig.NumEnds {
		t.Fatalf("rewired |B| = %d below original %d", rew.NumEnds, orig.NumEnds)
	}
	if rew.Protectors < orig.Protectors {
		t.Fatalf("rewired protectors = %d below original %d", rew.Protectors, orig.Protectors)
	}

	var buf bytes.Buffer
	if err := WriteNullModelAblation(&buf, abl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"null-model ablation", "original", "rewired", "modularity"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}
