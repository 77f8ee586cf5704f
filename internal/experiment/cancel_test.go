package experiment

import (
	"context"
	"errors"
	"testing"
)

// TestRunnersHonorPreCanceledContext checks that every experiment runner's
// Context variant fails fast with the context error instead of doing work.
func TestRunnersHonorPreCanceledContext(t *testing.T) {
	inst, err := Setup(smallDOAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	runs := map[string]func() error{
		"figureOPOAO": func() error { _, err := RunFigureOPOAOContext(ctx, inst); return err },
		"figureDOAM":  func() error { _, err := RunFigureDOAMContext(ctx, inst); return err },
		"table":       func() error { _, err := RunTableContext(ctx, inst); return err },
		"alphaSweep":  func() error { _, err := RunAlphaSweepContext(ctx, inst, []float64{0.5}); return err },
		"transfer":    func() error { _, err := RunModelTransferContext(ctx, inst); return err },
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}
