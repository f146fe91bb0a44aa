(** Coverage testing as query execution (the alternative Section 5 rejects).

    A clause body is a conjunctive query over the database: clause [C] covers
    example [e] iff the Select-Project-Join query [∃ body(C)θ0] — with θ0
    binding the head variables to [e]'s constants — is satisfiable over the
    {e full} database instance. This module evaluates that query directly
    with index-backed backtracking:

    - at each step the remaining literal with the fewest candidate tuples is
      chosen (fail-first, like a DBMS picking the most selective join next);
    - candidates come from the relation's hash index on a bound column, so
      each probe is O(matches) — the clause may still require exploring
      exponentially many partial joins, which is exactly why the paper
      prefers θ-subsumption against sampled ground bottom clauses;
    - a node budget bounds the blow-up; an exhausted budget reports
      non-coverage (same under-approximation direction as the subsumption
      engine).

    The bench harness compares this engine against {!Coverage} to regenerate
    the Section 5 motivation; {!Inference} enumerates its solutions to
    materialize learned definitions. *)

module Value = Relational.Value
module Relation = Relational.Relation
module Database = Relational.Database

exception Budget_exhausted

type config = { node_budget : int }

let default_config = { node_budget = 200_000 }

(* Candidate tuples of [rel] compatible with [lit] under [subst]: probe the
   index on the most selective bound column, or scan when nothing is
   bound. *)
let candidates db subst lit =
  match Database.find_opt db (Logic.Literal.pred lit) with
  | None -> []
  | Some rel ->
      let args = Logic.Literal.args lit in
      let best = ref None in
      Array.iteri
        (fun i t ->
          let bound =
            match t with
            | Logic.Term.Const v -> Some v
            | Logic.Term.Var x -> Logic.Substitution.find_opt x subst
          in
          match bound with
          | None -> ()
          | Some v -> (
              let n = Relation.frequency rel i v in
              match !best with
              | Some (bn, _, _) when bn <= n -> ()
              | _ -> best := Some (n, i, v)))
        args;
      let tuples =
        match !best with
        | Some (_, i, v) -> Relation.lookup rel i v
        | None -> Relation.tuples rel
      in
      List.filter_map
        (fun tuple ->
          Logic.Substitution.match_literal subst lit
            (Logic.Literal.of_tuple (Logic.Literal.pred lit) tuple))
        tuples

(* Cheap selectivity estimate used for literal ordering: the size of the
   index bucket on the most selective bound column (or the relation's
   cardinality when nothing is bound). *)
let estimate db subst lit =
  match Database.find_opt db (Logic.Literal.pred lit) with
  | None -> 0
  | Some rel ->
      let args = Logic.Literal.args lit in
      let best = ref (Relation.cardinality rel) in
      Array.iteri
        (fun i t ->
          let bound =
            match t with
            | Logic.Term.Const v -> Some v
            | Logic.Term.Var x -> Logic.Substitution.find_opt x subst
          in
          match bound with
          | None -> ()
          | Some v ->
              let n = Relation.frequency rel i v in
              if n < !best then best := n)
        args;
      !best

(** [search ?config db ~subst body on_solution] walks the solutions of the
    conjunctive query [body] over [db] that extend [subst], in fail-first
    order, until [on_solution] returns [Some]. Each search node costs one
    unit of the node budget. Raises {!Budget_exhausted} when it runs out. *)
let search ?(config = default_config) db ~subst body on_solution =
  let nodes = ref 0 in
  let tick () =
    incr nodes;
    if !nodes > config.node_budget then raise Budget_exhausted
  in
  let rec go remaining subst =
    tick ();
    match
      List.map (fun l -> (estimate db subst l, l)) remaining
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    with
    | [] -> on_solution subst
    | (_, lit) :: tl ->
        let rest = List.map snd tl in
        List.find_map (fun s -> go rest s) (candidates db subst lit)
  in
  go body subst

(** [satisfiable ?config db ~subst body] decides whether the conjunctive
    query [body] has a solution over [db] extending [subst]. Returns the
    first witnessing substitution. Raises {!Budget_exhausted} when the node
    budget runs out. *)
let satisfiable ?config db ~subst body =
  search ?config db ~subst body Option.some

(** [covers ?config db clause example] runs the clause as a
    Select-Project-Join query with the head bound to [example]. An exhausted
    budget counts as non-coverage. *)
let covers ?config db clause example =
  match Coverage.head_subst clause example with
  | None -> false
  | Some subst -> (
      try
        match satisfiable ?config db ~subst (Logic.Clause.body clause) with
        | Some _ -> true
        | None -> false
      with Budget_exhausted -> false)

(** [definition_covers ?config db def example] — disjunction over clauses. *)
let definition_covers ?config db def example =
  List.exists (fun c -> covers ?config db c example) def

(** [count ?config db clause examples] — number of covered examples. *)
let count ?config db clause examples =
  List.fold_left
    (fun acc e -> if covers ?config db clause e then acc + 1 else acc)
    0 examples
