package experiment

import (
	"context"
	"reflect"
	"testing"
)

// TestRunFigureOPOAOShardedRISMatchesUnsharded is the experiment-level
// bit-identity gate: routing the EstimatorRIS greedy through the sharded
// coordinator must reproduce the single-store figure exactly — every
// panel, every series, every protector count.
func TestRunFigureOPOAOShardedRISMatchesUnsharded(t *testing.T) {
	base := smallOPOAOConfig()
	base.Name = "fig4-ris-sharded-test"
	base.Estimator = EstimatorRIS
	base.RISSamples = 64

	run := func(shards int) *FigureResult {
		t.Helper()
		cfg := base
		cfg.RISShards = shards
		inst, err := Setup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := RunFigureOPOAOContext(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}

	plain := run(0)
	sharded := run(3)
	if len(plain.Panels) != len(sharded.Panels) {
		t.Fatalf("panel counts differ: %d vs %d", len(plain.Panels), len(sharded.Panels))
	}
	for i := range plain.Panels {
		if !reflect.DeepEqual(plain.Panels[i], sharded.Panels[i]) {
			t.Fatalf("panel %d differs between sharded and unsharded runs:\nplain:   %+v\nsharded: %+v",
				i, plain.Panels[i], sharded.Panels[i])
		}
	}
	if sharded.Panels[0].Protectors[AlgoGreedy] == 0 && sharded.Panels[0].NumEnds > 0 {
		t.Fatal("sharded RIS selected no protectors despite bridge ends")
	}
}

func TestConfigValidateRISShards(t *testing.T) {
	ok := smallOPOAOConfig()
	ok.Estimator = EstimatorRIS
	ok.RISSamples = 32
	ok.RISShards = 4
	if err := ok.validate(); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}

	neg := ok
	neg.RISShards = -1
	if err := neg.validate(); err == nil {
		t.Fatal("negative RISShards accepted")
	}

	adaptive := ok
	adaptive.RISSamples = 0
	adaptive.RISEpsilon = 0.3
	if err := adaptive.validate(); err == nil {
		t.Fatal("RISShards with adaptive epsilon accepted")
	}
}
