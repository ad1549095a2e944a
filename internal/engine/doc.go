// Package engine is the unified query execution engine: a single relational
// algebra evaluator parameterized by an annotation semiring, with hash-based
// physical operators (hash equi-join, hash union/difference/dedup) driven by
// the equi-join keys the optimizer extracts.
//
// # Semirings
//
// Every logical operator (σ, π, ⋈, ∪, −, ρ, γ) is written once against
// [Semiring]: a commutative semiring (⊕, ⊗, 0, 1) over the annotation type
// T, extended with the Section-6 difference rule and a base-tuple leaf
// annotation. The shipped instantiations are
//
//   - [Set] — plain set semantics, behind [Eval] / [EvalOpts];
//   - [Why] — Boolean how-provenance over base tuple identifiers, behind
//     [EvalProv] / [EvalProvOpts] (γ is rejected: core builds aggregate
//     provenance on top of the provenance of γ's input);
//   - [Count] — derivation counting with saturating arithmetic, behind
//     [CountDistinct] / [CountDistinctOpts];
//   - [BitSemiring] / [WideBitSemiring] — the batch semirings below;
//   - the exact ring ℤ of signed count changes, which [PreparedDiff]
//     uses internally to maintain its state under updates.
//
// New annotation domains (lineage sets, tropical costs, …) only need a
// Semiring implementation; the logical and physical operators are shared.
// Invariant: operators never mutate their inputs, so relations — including
// the caller's database — may be shared across concurrent evaluations.
//
// # Join keys
//
// A conjunct x = y of a θ-join condition is a hash key exactly when x and y
// resolve, in the concatenated schema the residual is compiled against, to
// columns on opposite sides (ra.EquiKeys); the evaluator's joins
// ([EquiJoinPlan]) and the planner's join regions (ra.FlattenJoin) take
// their keys from that one rule, and a natural join's keys are its shared
// columns. The optimizer moves a selection conjunct below an operator only
// where its names read the same columns there. Every key probe — the hash
// join's build and probe, the planner's semi-joins, the delta rule's
// retained indexes and [FirstDiff]'s probes — goes through one equi-key
// index that hashes numbers by value and confirms each candidate with
// relation.Value.Equal, so keys compare exactly as `=` does: Int(1) matches
// Float(1.0), an int beyond 2^53 does not match its float64 rounding, and
// NULL matches nothing. ∪, −, γ and deduplication keep identity
// (relation.Value.Identical).
//
// # Shared subexpressions
//
// Every entry point — [RunOpts] and the functions built on it, [EvalPair],
// [EvalBatchDiffs] and [PrepareDiff] — optimizes and plans its roots and
// then hash-conses them together: nodes with the same operator, payload and
// children become one node, so one call's roots form one plan DAG. A
// subquery a query repeats, a base relation it scans twice, and everything
// Q1 and Q2 have in common are evaluated once; the exec keeps a shared
// node's result until its last reader has taken it. The rule is the same
// under every semiring: under [Why] a shared node's annotations are shared
// subexpressions, and since the witness search encodes provenance to CNF by
// structure, not by pointer, sharing them does not change its formula. A
// planned join merged into an equal one reports the shared node's
// cardinality to [Options].Observer.
//
// # First-witness evaluation
//
// [FirstDiff] returns the one tuple the single-witness algorithms explain:
// the first of Q1 − Q2 in Q1's order, else the first of Q2 − Q1 in Q2's
// order, the tuple [EvalPair] and relation.SetDiff give. It prepares both
// roots as one DAG (two roots that are one node agree without any
// evaluation), evaluates Q1 in full and Q2 up to its top join, and never
// materializes that join. Q2's root chain above the join (σ, π, ρ and
// Permute) copies join-input columns into its output, so each Q1 tuple
// fixes some input columns: a hash semi-join probes, for every Q1 tuple,
// the input pairs with those values, and a pair counts only if the join's
// keys and θ-condition and the chain's σ accept it and the chain maps it
// to the tuple. When every Q1 tuple is produced, the join's emit loop —
// the one a materializing join runs — streams its pairs through the chain
// in Q2's order up to the first output Q1 lacks. Streamed pairs count
// against the row budget and the Stop stride as materialized output does.
// A Q2 whose top below the chain is not a join, or is a node Q1 shares,
// is evaluated in full.
//
// # Batched evaluation
//
// [EvalBatch] evaluates one query over K candidate subinstances of the same
// database in a single pass: bit k of every annotation replays the
// set-semantics evaluation on candidate k (⊕ = OR, ⊗ = AND, Minus = AND
// NOT), with definite-zero annotations pruned at scans and join emits.
// [EvalBatchDiffs] does both directions of Q1 − Q2 in one pass.
// Plans containing γ fail with an error wrapping [ErrNoAggregates]
// (aggregation is not per-bit sound); callers detect it with errors.Is and
// fall back to per-candidate evaluation.
//
// # Delta-incremental evaluation
//
// [PrepareDiff] evaluates Q1 − Q2 and Q2 − Q1 once, through the same
// operators under the counting semiring, in a retained mode that keeps
// every plan node's output, the compiled predicates and the equi-key
// indexes over each hash join's inputs. [PreparedDiff.ApplyDelta] propagates one signed update —
// deletions plus insertions, updates expressed as delete+insert — by
// running the same plan again under the ring ℤ, so that every node yields
// the change of its output: σ, π, ρ, ∪ and the planner's Permute are the
// generic operators applied to their inputs' changes, and only scans,
// joins, differences and γ keep delta rules that read the retained
// outputs. The work is proportional to the delta. Deletion-only updates
// pass no insertions, and [DeltaResult.Commit] rebases the retained state
// (assigning fresh TupleIDs to committed insertions in deterministic order)
// for sequential shrink loops and live sessions. Invariants: a prepared
// state answers deltas only against its current base (stale commits fail
// with [ErrStaleDelta]); derivation counts are kept exact and below a safe
// bound — a plan or delta that would saturate them is refused with
// [ErrNotIncremental] before any state mutates (saturation is not
// invertible, so signed delta arithmetic over it would be unsound), and
// the prepared state stays usable. Because committing insertions mutates
// the underlying database, a prepared object whose callers insert must
// own a private clone of its instance.
//
// # Budgets
//
// Every evaluation is bounded by the intermediate-row budget — the
// process-wide [MaxIntermediateRows], optionally tightened per evaluation
// via [Options].MaxRows — and fails with [ErrRowBudget] when exceeded. A
// join's accepted pairs count against it whether the join materializes or
// streams them ([FirstDiff]).
package engine
