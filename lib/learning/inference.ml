(** Applying a learned Horn definition to a database: bottom-up derivation of
    every target tuple the definition entails.

    Learned definitions are non-recursive Datalog without negation
    (Section 2.1), so one pass per clause suffices: enumerate the solutions
    of the body query and project each witness onto the head arguments. This
    is what a user does with AutoBias's output — materialize the predicted
    relation, or stream predictions. Budgets bound both the search and the
    result set so an over-general clause cannot blow up the caller. *)

module Value = Relational.Value

type config = {
  node_budget : int;  (** {!Query.search} nodes per clause *)
  max_results : int;  (** derived head tuples per clause *)
}

let default_config = { node_budget = 2_000_000; max_results = 100_000 }

(** [derive ?config db clause] is the set of ground head tuples [clause]
    derives over [db], sorted and duplicate-free. Head variables that the
    body does not bind make the head non-ground; such witnesses are
    skipped (a learned clause is always head-connected, so this only happens
    for degenerate hand-written clauses). *)
let derive ?(config = default_config) db clause =
  let head = Logic.Clause.head clause in
  let out = Hashtbl.create 256 in
  (* [Some ()] stops the search: the result cap is reached. *)
  let emit subst =
    if Hashtbl.length out >= config.max_results then Some ()
    else begin
      let args =
        Array.map
          (fun t -> Logic.Substitution.apply_term subst t)
          (Logic.Literal.args head)
      in
      if Array.for_all Logic.Term.is_const args then
        Hashtbl.replace out
          (Array.map
             (function
               | Logic.Term.Const v -> v | Logic.Term.Var _ -> assert false)
             args)
          ();
      None
    end
  in
  (try
     ignore
       (Query.search
          ~config:{ Query.node_budget = config.node_budget }
          db ~subst:Logic.Substitution.empty (Logic.Clause.body clause) emit)
   with Query.Budget_exhausted -> ());
  Hashtbl.fold (fun t () acc -> t :: acc) out [] |> List.sort compare

(** [derive_definition ?config db def] is the union of {!derive} over the
    clauses of [def]. *)
let derive_definition ?config db def =
  List.concat_map (fun c -> derive ?config db c) def
  |> List.sort_uniq compare
