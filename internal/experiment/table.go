package experiment

import (
	"context"
	"errors"
	"fmt"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/graph"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
)

// TableRow is one row of Table I: the average number of protectors each
// algorithm needs to protect every bridge end under DOAM, for one rumor
// seed-set size.
type TableRow struct {
	// RumorFraction is |R| / |C|; NumRumors the resulting seed count.
	RumorFraction float64
	NumRumors     int
	// MeanEnds is the average bridge-end count over the trials.
	MeanEnds float64
	// SCBG, Proximity and MaxDegree are the average protector counts.
	SCBG      float64
	Proximity float64
	MaxDegree float64
	// ProximityShort and MaxDegreeShort count trials in which the
	// heuristic's full candidate ranking could not protect every bridge
	// end (its whole ranking size is then charged as the cost).
	ProximityShort int
	MaxDegreeShort int
	// SCBGUncovered counts trials where the BBST inversion left ends
	// uncoverable.
	SCBGUncovered int
	// Trials is the number of rumor draws averaged.
	Trials int
}

// TableResult is a reproduced block of Table I.
type TableResult struct {
	Config Config
	Rows   []TableRow
}

// RunTableContext reproduces one block of Table I for the instance: for each
// rumor fraction it averages, over Trials random rumor draws, the number of
// protectors each algorithm selects so that *all* bridge ends are protected
// under the DOAM model. Cancellation is checked per trial and forwarded to
// SCBG and the DOAM protection checks.
func RunTableContext(ctx context.Context, inst *Instance) (*TableResult, error) {
	cfg := inst.Config
	out := &TableResult{Config: cfg}
	src := rng.New(cfg.Seed + 6)
	for _, frac := range cfg.RumorFractions {
		row := TableRow{RumorFraction: frac, Trials: cfg.Trials}
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
			}
			prob, err := inst.NewProblem(frac, src)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
			}
			rumors := prob.Rumors
			row.NumRumors = len(rumors)
			row.MeanEnds += float64(prob.NumEnds())
			if prob.NumEnds() == 0 {
				continue // nothing to protect: all costs are zero
			}

			sres, err := core.SCBGContext(ctx, prob, core.SCBGOptions{})
			if err != nil && !errors.Is(err, core.ErrNoBridgeEnds) {
				if sres == nil || sres.UncoverableEnds == 0 {
					return nil, fmt.Errorf("experiment: %s: scbg: %w", cfg.Name, err)
				}
				row.SCBGUncovered++
			}
			if sres != nil {
				row.SCBG += float64(len(sres.Protectors))
			}

			hctx := heuristic.Context{Graph: inst.Net.Graph, Rumors: rumors, BridgeEnds: prob.Ends}
			for _, sel := range []heuristic.Selector{heuristic.Proximity{}, heuristic.MaxDegree{}} {
				rank, err := sel.Rank(hctx, src.Split())
				if err != nil {
					return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
				}
				need, err := minPrefixProtecting(ctx, inst.Net.Graph, rumors, prob.Ends, rank)
				if err != nil {
					return nil, fmt.Errorf("experiment: %s: %s solution size: %w", cfg.Name, sel.Name(), err)
				}
				short := need > len(rank)
				if short {
					need = len(rank)
				}
				switch sel.(type) {
				case heuristic.Proximity:
					row.Proximity += float64(need)
					if short {
						row.ProximityShort++
					}
				case heuristic.MaxDegree:
					row.MaxDegree += float64(need)
					if short {
						row.MaxDegreeShort++
					}
				}
			}
		}
		inv := 1 / float64(cfg.Trials)
		row.MeanEnds *= inv
		row.SCBG *= inv
		row.Proximity *= inv
		row.MaxDegree *= inv
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// minPrefixProtecting returns the smallest k such that the first k nodes of
// rank, used as protector seeds, leave no bridge end infected under DOAM.
// Returns len(rank)+1 when even the full ranking fails. Protection is
// monotone in the seed set (protectors only speed the P cascade up), so a
// doubling search followed by binary search is exact. A failing DOAM check
// — cancellation, or seeds that stopped being valid for the graph — is
// propagated, never panicked.
func minPrefixProtecting(ctx context.Context, g *graph.Graph, rumors, ends []int32, rank []int32) (int, error) {
	protects := func(k int) (bool, error) {
		res, err := diffusion.DOAM{}.RunContext(ctx, g, rumors, rank[:k], nil, diffusion.Options{})
		if err != nil {
			return false, fmt.Errorf("experiment: DOAM check with %d seeds: %w", k, err)
		}
		for _, e := range ends {
			if res.Status[e] == diffusion.Infected {
				return false, nil
			}
		}
		return true, nil
	}
	if len(ends) == 0 {
		return 0, nil
	}
	if ok, err := protects(0); err != nil {
		return 0, err
	} else if ok {
		return 0, nil
	}
	if ok, err := protects(len(rank)); err != nil {
		return 0, err
	} else if !ok {
		return len(rank) + 1, nil
	}
	// Doubling phase to find an upper bound, then binary search.
	lo, hi := 0, 1
	for hi < len(rank) {
		ok, err := protects(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		lo, hi = hi, hi*2
	}
	if hi > len(rank) {
		hi = len(rank)
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		ok, err := protects(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
