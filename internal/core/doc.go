// Package core implements the paper's contribution: algorithms for the
// smallest counterexample problem (SCP) and smallest witness problem (SWP)
// of Section 2, including
//
//   - [Basic] (Algorithm 1): SAT-model enumeration over how-provenance;
//   - [OptSigma] (Algorithm 2): selection pushdown plus an optimizing
//     solver, and [OptSigmaAll], its exact whole-difference variant;
//   - poly-time algorithms for the tractable classes of Table 1
//     ([MonotoneSWP] for SJ/SPU/SPJU via DNF, [JUStarSWP], [SPJUDStarSWP]);
//   - the aggregate-query algorithms of Section 5: [AggBasic] (provenance
//     for aggregates), Agg-Param (smallest parameterized counterexample,
//     via AggOptions.Parameterize) and [AggOpt] (the heuristic
//     Algorithm 3);
//   - foreign-key constraint handling (Section 4.3) and automatic
//     algorithm dispatch ([Explain]).
//
// # Problems, budgets and outcomes
//
// Every algorithm takes a [Problem] — the query pair, the instance, its
// constraints and parameter bindings — and returns a verified
// [Counterexample] with [Stats], or an error. Two error sentinels separate
// outcomes callers handle specially from genuine failures:
// [ErrQueriesAgree] (the queries agree on D, so no counterexample exists
// within it) and [ErrBudget] (the problem's Ctx deadline or cancellation
// cut the search short). A Problem optionally carries per-request budgets:
// Ctx (wall clock, polled between loop iterations and inside the SAT/SMT
// solvers), MaxConflicts (per SAT call) and MaxRows (engine intermediate
// rows). Invariant: a budgeted search may fail early, but it never returns
// an unverified counterexample — every result passes [Verify] before it is
// returned.
//
// # One pipeline
//
// The algorithms share one skeleton: evaluate Q1 and Q2 on D, pick a
// differing tuple, push its selection down, compute its provenance, add the
// foreign-key implications, solve, and verify. Each shared step is one
// unexported function (pipeline.go), and an algorithm differs from the
// others only in how it solves:
//
//   - the base witness of the single-witness algorithms (OptSigma, the
//     poly-time SWP procedures, SolveWitnessStrategy, Agg-Opt's inner
//     queries and ShrinkGreedy's no-retained-state loop): the first tuple
//     of Q1 − Q2, else the first of Q2 − Q1, from one engine.FirstDiff.
//     It evaluates Q1 and Q2 up to Q2's top join, probes Q1's result into
//     that join with a hash semi-join, and streams the join only to the
//     witness, with the streamed pairs counted against MaxRows; so an
//     explanation costs what its witness costs, not the wrong query's
//     whole result;
//   - the base difference of the algorithms that need every differing
//     tuple (Basic, OptSigmaAll, EnumerateSmallest, AggBasic): one
//     budgeted evaluation of Q1 and Q2 on D that materializes both
//     differences. Both base steps return ErrQueriesAgree when the queries
//     agree on D;
//   - a tuple's pushed-down provenance (and, for the Theorem 5 and 7
//     procedures, the per-term count pass and monotone DNF);
//   - the foreign-key parent index: each foreign key's child tuples mapped
//     to their parents, built once per explanation and passed to the CNF
//     and SMT encodings, to the closure of the combinatorial algorithms
//     (which keeps a parent already in the set) and to ShrinkGreedy's
//     deletion guard;
//   - the verified exit, through Verify.
//
// Agg-Param and Agg-Opt relax HAVING thresholds; both search and verify
// against one rewritten Problem whose thresholds are parameters.
//
// # Candidate checking
//
// The search algorithms take their base witness or base diffs from one
// plain evaluation on D and funnel their "do Q1 and Q2 still disagree on
// this subinstance" questions through two paths: the batched bitvector
// layer ([DisagreeBatch] / [VerifyBatch], chunked at 256 candidates, one
// engine pass per chunk), and per-candidate evaluation, which γ plans,
// row-budget overruns and candidates carrying their own parameter settings
// fall back to. The paths change cost only — accept/reject decisions are
// identical on both. The retained-state delta evaluation
// (engine.PrepareDiff) serves the two callers that keep state across
// checks: [ShrinkGreedy], which commits one deletion at a time, and
// [LiveSession].
//
// Solvers live below this package: internal/sat (CDCL), internal/minones
// (min-ones enumeration/optimization), internal/smt (symbolic aggregate
// constraints, a branch-and-bound search that polls the budget on every
// node).
package core
