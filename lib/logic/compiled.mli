(** Clause compilation: an int-coded θ-subsumption kernel for the coverage
    hot path.

    Predicate symbols and constants are interned into contiguous int ids;
    ground bottom clauses flatten into int arrays with precomputed
    per-(predicate, position, value) adjacency indexes; candidate clauses
    compile once into evaluation {!plan}s; and {!eval} runs the frontier
    over reusable {!scratch} arenas — loops over int arrays, no per-step
    allocation.

    [eval] is {e bit-identical} to {!Subsumption.eval_prefix}: same
    verdicts, same witness substitutions, same [Coverage_truncated] budget
    hits, for every clause/ground/cap — the property the qcheck oracle test
    asserts. Interned ids are only ever compared for equality; ordering
    goes through [Value.compare] on the reverse array, so results do not
    depend on interning order (and hence not on pool scheduling). *)

(** A process- or context-wide interner for predicate symbols and constant
    values. Thread-safe: interning takes an internal mutex; readers access
    the reverse array lock-free (safe for ids published to them through any
    mutex, e.g. a plan or ground cache). *)
module Symtab : sig
  type t

  val create : unit -> t
  val pred_id : t -> string -> int
  val const_id : t -> Relational.Value.t -> int
end

type ground
(** A compiled ground clause body plus its interned example tuple. *)

val ground_size : ground -> int

(** [compile_ground tab ~example lits] flattens ground literals [lits],
    preserving the symbolic engine's index orders.
    @raise Invalid_argument if some literal is not ground. *)
val compile_ground :
  Symtab.t -> example:Relational.Relation.tuple -> Literal.t list -> ground

type plan
(** A compiled candidate clause: dense variable numbering, int-coded head
    and body, canonical int key. *)

(** [compile tab clause] int-codes [clause]. Pure up to interning:
    recompiling yields an interchangeable plan. *)
val compile : Symtab.t -> Clause.t -> plan

(** [key plan] — a canonical key injective exactly where
    [Clause.to_string] is (α-variants stay distinct): the compiled
    replacement for printed-clause memo keys. *)
val key : plan -> int array

type scratch
(** Reusable evaluation arenas. Not thread-safe — use one per worker
    domain (e.g. via [Domain.DLS]). *)

val make_scratch : unit -> scratch

(** [eval ?cap ?budget scratch tab plan g] — {!Subsumption.eval_prefix}
    over the compiled representations, bit-identical to the symbolic
    engine. [Blocked 0] means the head cannot bind to [g]'s example
    tuple. *)
val eval :
  ?cap:int ->
  ?budget:Budget.t ->
  scratch ->
  Symtab.t ->
  plan ->
  ground ->
  Subsumption.verdict
