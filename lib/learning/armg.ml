(** The asymmetric relative minimal generalization operator (Section 2.3.2).

    Given a clause [C] (initially a bottom clause) and a positive example
    [e'] that [C] does not cover, ARMG repeatedly removes the {e blocking
    atom} — the body literal [L_i] with the least [i] such that the prefix
    [head ← L_1, …, L_i] does not cover [e'] — until [e'] is covered, then
    drops body literals that lost head-connectedness.

    The implementation is incremental: a single left-to-right sweep of the
    substitution-set frontier ({!Logic.Subsumption.step_frontier_n}). When the
    frontier dies at literal [L_i], the prefix before it is untouched by the
    removal, so the sweep resumes at position [i] with the saved frontier —
    the whole operator costs one frontier step per surviving literal plus
    one per removal, instead of a full subsumption test per removal. *)

(** [generalize cov clause ~example] applies ARMG. Returns [None] when the
    clause head cannot be bound to [example] (arity/constant mismatch) —
    such an example cannot be covered by any generalization of [clause]. *)
let generalize cov clause ~example =
  match Coverage.head_subst clause example with
  | None -> None
  | Some subst ->
      let g = Coverage.ground_of cov example in
      let body = Array.of_list (Logic.Clause.body clause) in
      let n = Array.length body in
      let kept = Array.make n true in
      (* One sweep: removing a blocking atom leaves the frontier of the
         surviving prefix unchanged, so the sweep simply carries it on to
         the next literal. *)
      let frontier = ref [ subst ] and frontier_n = ref 1 in
      for i = 0 to n - 1 do
        match
          Logic.Subsumption.step_frontier_n g !frontier
            ~frontier_n:!frontier_n body.(i)
        with
        | [], _ -> kept.(i) <- false
        | next, next_n ->
            frontier := next;
            frontier_n := next_n
      done;
      let surviving =
        Array.to_list body
        |> List.filteri (fun j _ -> kept.(j))
      in
      Some
        (Logic.Clause.prune_head_connected
           (Logic.Clause.make (Logic.Clause.head clause) surviving))
