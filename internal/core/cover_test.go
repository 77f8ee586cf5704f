package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"lcrb/internal/rrset"
)

// rrRows counts the rows GreedyContext counts for opts on p: the
// nodes that lie in some RR set of its realizations.
func rrRows(t *testing.T, p *Problem, opts GreedyOptions) int {
	t.Helper()
	smp := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, DefaultGreedyHops, false)
	reals, err := smp.Draw(rrset.Seeds(opts.Seed, opts.Samples), nil, 1, func(int) error { return nil }, IsInterruption)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []rrset.Pair
	for _, r := range reals {
		pairs = append(pairs, r.Pairs...)
	}
	return len(rrset.NewIndex(pairs, 1).Nodes)
}

// checkPrefix fails unless got is a prefix of want.
func checkPrefix(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) > len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatalf("%s: %v is not a prefix of %v", what, got, want)
	}
}

// TestGreedyCoverChargesEveryRowCount pins GreedyContext's
// evaluation accounting: every row count is one evaluation — the first
// count of each row, then every lazy recount — and MaxEvaluations stops
// the selection before the count that would exceed it, so an exhausted
// run reports exactly its budget with a prefix of the full selection.
// Below the row count no selection is made.
func TestGreedyCoverChargesEveryRowCount(t *testing.T) {
	p := batchProblem(t)
	opts := GreedyOptions{Alpha: 0.9, Samples: 12, Seed: 3}
	full, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := rrRows(t, p, opts)
	if len(full.Protectors) < 2 || full.Evaluations <= rows {
		t.Fatalf("instance too easy: %d protectors, %d evaluations over %d rows", len(full.Protectors), full.Evaluations, rows)
	}
	for budget := 1; budget < full.Evaluations; budget++ {
		capped := opts
		capped.MaxEvaluations = budget
		res, err := Greedy(p, capped)
		if !errors.Is(err, ErrBudgetExhausted) || res == nil || !res.Partial {
			t.Fatalf("budget %d: (%+v, %v), want a partial result and ErrBudgetExhausted", budget, res, err)
		}
		if res.Evaluations != budget {
			t.Fatalf("budget %d: %d evaluations charged", budget, res.Evaluations)
		}
		if budget < rows && len(res.Protectors) != 0 {
			t.Fatalf("budget %d below the %d rows selected %v", budget, rows, res.Protectors)
		}
		checkPrefix(t, "budget", res.Protectors, full.Protectors)
	}
	capped := opts
	capped.MaxEvaluations = full.Evaluations
	if res, err := Greedy(p, capped); err != nil || !reflect.DeepEqual(res.Protectors, full.Protectors) {
		t.Fatalf("budget of exactly %d evaluations: (%v, %v), want the full selection", full.Evaluations, res, err)
	}
}

// TestGreedyCoverPlainRecountsEveryRow pins Plain:
// round 0 counts every row once and every later round recounts every row
// still unselected, so with the selection stopped by MaxProtectors after k
// rounds, Evaluations = R + (R−1) + … + (R−k+1) over R rows — and the
// selection equals the lazy one.
func TestGreedyCoverPlainRecountsEveryRow(t *testing.T) {
	p := batchProblem(t)
	const k = 4
	opts := GreedyOptions{Alpha: 0.99, Samples: 12, Seed: 3, MaxProtectors: k, Plain: true}
	res, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) != k {
		t.Fatalf("selected %d protectors, want the cap %d", len(res.Protectors), k)
	}
	rows := rrRows(t, p, opts)
	want := 0
	for j := 0; j < k; j++ {
		want += rows - j
	}
	if res.Evaluations != want {
		t.Fatalf("plain Evaluations = %d, want %d over %d rows", res.Evaluations, want, rows)
	}
	opts.Plain = false
	lazy, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lazy.Protectors, res.Protectors) || lazy.Evaluations >= res.Evaluations {
		t.Fatalf("lazy %v in %d evaluations, plain %v in %d", lazy.Protectors, lazy.Evaluations, res.Protectors, res.Evaluations)
	}
}

// TestGreedyCoverCancelMidSelection cancels the context from OnRound after
// the first selection: GreedyContext checks it before the next
// recount and returns the one-protector prefix with context.Canceled, in
// lazy and plain mode alike. A context canceled up front stops the
// sampling before any selection.
func TestGreedyCoverCancelMidSelection(t *testing.T) {
	p := batchProblem(t)
	for _, plain := range []bool{false, true} {
		opts := GreedyOptions{Alpha: 0.9, Samples: 12, Seed: 3, Plain: plain}
		full, err := Greedy(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		opts.OnRound = func(GreedyRound) { cancel() }
		res, err := GreedyContext(ctx, p, opts)
		cancel()
		if !errors.Is(err, context.Canceled) || res == nil || !res.Partial {
			t.Fatalf("plain=%v: (%+v, %v), want a partial result and context.Canceled", plain, res, err)
		}
		if len(res.Protectors) != 1 {
			t.Fatalf("plain=%v: %d protectors after canceling in round 0, want 1", plain, len(res.Protectors))
		}
		checkPrefix(t, "canceled", res.Protectors, full.Protectors)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := GreedyContext(ctx, p, GreedyOptions{Alpha: 0.9, Samples: 12, Seed: 3})
	if !errors.Is(err, context.Canceled) || res == nil || !res.Partial || len(res.Protectors) != 0 {
		t.Fatalf("pre-canceled: (%+v, %v), want an empty partial result and context.Canceled", res, err)
	}
}

// TestGreedyCoverDeadlineMidSelection lets MaxDuration run out while
// OnRound holds the first round: the deadline is checked before the next
// row count, so the run stops with at most the first protector and an
// error wrapping ErrBudgetExhausted.
func TestGreedyCoverDeadlineMidSelection(t *testing.T) {
	p := batchProblem(t)
	opts := GreedyOptions{Alpha: 0.9, Samples: 12, Seed: 3}
	full, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 300 * time.Millisecond
	rounds := 0
	opts.MaxDuration = budget
	opts.OnRound = func(GreedyRound) {
		rounds++
		time.Sleep(budget)
	}
	res, err := Greedy(p, opts)
	if !errors.Is(err, ErrBudgetExhausted) || res == nil || !res.Partial {
		t.Fatalf("(%+v, %v), want a partial result and ErrBudgetExhausted", res, err)
	}
	if rounds > 1 || len(res.Protectors) != rounds {
		t.Fatalf("%d rounds reported, %d protectors returned; want the run stopped after at most one", rounds, len(res.Protectors))
	}
	checkPrefix(t, "expired", res.Protectors, full.Protectors)
}
