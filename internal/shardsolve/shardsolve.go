// Package shardsolve is the sharded scatter-gather tier of the RIS
// solver: a coordinator drives the exact lazy-greedy max-coverage loop of
// sketch.SolveGreedyRIS, but the RR-pair pool lives partitioned across N
// shard workers, each holding the slice of realizations congruent to its
// index (sketch.BuildShardContext). Per round the coordinator scatters the
// candidate at the top of its lazy queue, gathers per-shard marginal
// gains, commits the argmax on every shard, and books the summed local
// gains — so the covered bitsets stay sharded and only integers cross the
// wire.
//
// # Bit-identity
//
// With no faults, the sharded solve returns a GreedyResult identical —
// Protectors, Gains, Evaluations, σ̂ — to the single-store solver, for
// every shard count. The argument chains three facts. First, the CRN
// shard builds partition the single build's pairs exactly (the
// sketch.BuildShardContext contract), so a candidate's global marginal
// gain is the sum of its per-shard gains: the pair sets are disjoint and
// their union is the full pool. Second, the lazy-greedy loop's behavior depends
// only on the sequence of (gain, node) keys it observes, and those keys
// are unique (node ids break ties), so any max-heap discipline pops the
// same sequence — the coordinator replicates the solver's queue verbatim.
// Third, the stopping rule is integer-exact (covered pairs vs
// required·N − baseline), so no float drift can flip a comparison.
//
// # Robustness
//
// Every scatter leg runs through resilience.Retry around a per-endpoint
// resilience.Breaker around resilience.Hedge, so stragglers are hedged,
// repeated failures trip fast, and transient faults retry. An endpoint
// that exhausts its budget is dead: its shard identity is requeued onto a
// spare endpoint when the transport has one (the spare rebuilds the slice
// from its provider and replays the commit prefix carried by every
// request), and excluded otherwise. Exclusion is honest, not silent:
// realizations are i.i.d., so dropping a shard's slice leaves an unbiased
// estimate over the surviving N_eff = Samples − lost realizations. The
// coordinator recomputes covered pairs, the α target, σ̂ and the gain
// history over live shards only (it tracks every commit's per-shard
// gains), tags the result Degraded = "shard_loss" with a Shards census,
// and — when the caller asked for a certificate — re-runs the martingale
// bound at N_eff, flipping BoundMet false when the loss broke it.
//
// # Protocol
//
// Requests are session-free: every gains/commit request carries the full
// committed prefix, and a host reconciles its per-solve session to that
// prefix — applying the missing suffix, rebuilding from scratch on
// divergence or after a restart, and answering duplicate commits from its
// gain log. A shard process restart therefore loses nothing but time.
package shardsolve

import "lcrb/internal/core"

// Spec describes one sharded solve. The build options must describe a
// fixed-samples build (the adaptive stopping rule needs a global coverage
// probe no shard can run); the coordinator learns Samples and NumEnds
// from the shards' init responses and verifies they agree.
type Spec struct {
	// Alpha is the fraction of bridge ends to protect, in (0, 1).
	// Defaults to 0.9, matching sketch.SolveOptions.
	Alpha float64
	// MaxProtectors caps the seed-set size. 0 means |B|.
	MaxProtectors int

	// CertEpsilon, when positive, asks the coordinator to check the
	// PR-8 martingale certificate at the effective (post-loss) sample
	// count: Result.BoundChecked is set and Result.BoundMet reports
	// whether N_eff realizations still certify relative error ε at
	// failure probability CertDelta (default sketch.DefaultDelta).
	CertEpsilon float64
	// CertDelta is the certificate's failure probability, in (0, 1).
	CertDelta float64

	// SolveID names the coordinator's session on the shards. Empty means
	// a process-unique id; set it only to correlate logs across tiers.
	SolveID string
}

// ShardsInfo is the shard census of a solve: how many shard identities
// the solve opened with, how many still contributed to the final answer,
// and how many realizations the dead ones took with them.
type ShardsInfo struct {
	// Total is the shard count the solve opened with.
	Total int `json:"total"`
	// Live is how many shards contributed to the final estimate.
	Live int `json:"live"`
	// LostRealizations is the number of realizations excluded with dead
	// shards; the effective sample count is Samples − LostRealizations.
	LostRealizations int `json:"lostRealizations"`
}

// DegradedShardLoss is the Result.Degraded tag of a solve that lost at
// least one shard and answered from the survivors.
const DegradedShardLoss = "shard_loss"

// Result is a sharded solve's answer: the GreedyResult the single-store
// solver would shape, plus the shard census and honesty tags.
type Result struct {
	core.GreedyResult

	// Samples is the solve's global realization count; EffectiveSamples
	// is what remained after shard loss (equal when nothing was lost).
	// Every σ̂ in the embedded GreedyResult is normalized by
	// EffectiveSamples.
	Samples          int
	EffectiveSamples int

	// Shards is the shard census.
	Shards ShardsInfo
	// Degraded is empty for a full-accuracy answer, DegradedShardLoss
	// when shard loss shrank the sample pool behind the estimate.
	Degraded string
	// BoundChecked reports that the Spec asked for a certificate check;
	// BoundMet is its verdict at EffectiveSamples. A solve that starts
	// with the bound met and loses enough realizations to break it
	// returns BoundChecked true, BoundMet false.
	BoundChecked bool
	BoundMet     bool
}
