(** Coverage testing as query execution — the Select-Project-Join
    alternative Section 5 rejects, implemented for the comparison: the
    clause body runs as a conjunctive query over the {e full} database with
    index-backed, fail-first backtracking and a node budget (exhaustion
    counts as non-coverage, the same under-approximation direction as the
    subsumption engine). {!search} is the repo's one exact conjunctive-query
    search: {!Inference} enumerates its solutions. *)

exception Budget_exhausted

type config = { node_budget : int }

val default_config : config

(** [search ?config db ~subst body on_solution] is the fail-first,
    index-backed search: it calls [on_solution] on each solution of [body]
    over [db] extending [subst], in search order, and stops at the first
    [Some]. Every search node costs one unit of [config.node_budget].
    @raise Budget_exhausted when the node budget runs out. *)
val search :
  ?config:config ->
  Relational.Database.t ->
  subst:Logic.Substitution.t ->
  Logic.Literal.t list ->
  (Logic.Substitution.t -> 'a option) ->
  'a option

(** [satisfiable ?config db ~subst body] is {!search} stopped at the
    first solution: it decides the conjunctive query, returning a witness.
    @raise Budget_exhausted when the node budget runs out. *)
val satisfiable :
  ?config:config ->
  Relational.Database.t ->
  subst:Logic.Substitution.t ->
  Logic.Literal.t list ->
  Logic.Substitution.t option

(** [covers ?config db clause example] — head bound to [example], body run
    as a query; a blown budget counts as non-coverage. *)
val covers :
  ?config:config -> Relational.Database.t -> Logic.Clause.t ->
  Relational.Relation.tuple -> bool

val definition_covers :
  ?config:config -> Relational.Database.t -> Logic.Clause.definition ->
  Relational.Relation.tuple -> bool

val count :
  ?config:config -> Relational.Database.t -> Logic.Clause.t ->
  Relational.Relation.tuple list -> int
