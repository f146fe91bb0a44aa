(* Exact θ-subsumption for the tests: a ground clause body read as a
   database with one relation per predicate, so [Learning.Query] (the exact
   conjunctive-query search) decides whether a clause body maps into it.
   The frontier engine is checked against this. *)

let db_of_literals ls =
  let by_pred = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let p = Logic.Literal.pred l in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_pred p) in
      Hashtbl.replace by_pred p (Logic.Literal.to_tuple l :: prev))
    ls;
  Hashtbl.fold
    (fun p tuples acc ->
      let arity = Array.length (List.hd tuples) in
      let schema =
        Relational.Schema.relation p (Array.init arity (Printf.sprintf "a%d"))
      in
      Relational.Relation.of_tuples schema tuples :: acc)
    by_pred []
  |> Relational.Database.of_relations

(* [subsumes ?subst c ground] — some extension of [subst] maps the body of
   [c] into the ground literals [ground]. *)
let subsumes ?(subst = Logic.Substitution.empty) c ground =
  Learning.Query.satisfiable (db_of_literals ground) ~subst
    (Logic.Clause.body c)
  |> Option.is_some
