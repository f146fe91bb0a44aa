(** Applying a learned Horn definition to a database: bottom-up derivation
    of the target tuples it entails (learned definitions are non-recursive
    Datalog without negation, so one pass per clause suffices). *)

type config = {
  node_budget : int;  (** {!Query.search} nodes per clause *)
  max_results : int;  (** derived head tuples per clause *)
}

val default_config : config

(** [derive ?config db clause] — the ground head tuples [clause] derives
    over [db], sorted and duplicate-free. Witnesses that leave a head
    variable unbound are skipped. *)
val derive :
  ?config:config -> Relational.Database.t -> Logic.Clause.t ->
  Relational.Relation.tuple list

(** [derive_definition ?config db def] — union over the clauses. *)
val derive_definition :
  ?config:config -> Relational.Database.t -> Logic.Clause.definition ->
  Relational.Relation.tuple list
