(** θ-subsumption testing (Section 5 of the paper).

    Clause [c] θ-subsumes ground clause [g] iff there is a substitution θ with
    body(c)θ ⊆ body(g). Deciding this is NP-hard, so the engine is an
    approximate left-to-right {e substitution-frontier} evaluator: the set
    of ways each body prefix maps into [g] is advanced one literal at a time
    and capped, so the test errs only toward "no" (coverage is
    under-approximated, never over-approximated). It reports the paper's
    {e blocking atom} for free, which is what ARMG needs.

    Ground literals are indexed by (predicate, position, value), so a
    literal with any bound argument only probes matching ground literals.
    The compiled kernel ({!Compiled}) runs the same sweep over int-coded
    ground BCs in production; this engine is what ARMG and the kernel's
    oracle tests use. The exact reference is [Learning.Query]. *)

type ground = {
  by_pred : (string, Literal.t array) Hashtbl.t;
  by_pred_pos_value :
    (string * int * Relational.Value.t, int * Literal.t list) Hashtbl.t;
      (** buckets carry their cached length: candidate selection compares
          bucket sizes on every probe of every frontier step, and recomputing
          [List.length] there made it O(arity · bucket) per literal *)
  literal_count : int;
}
(** A ground clause body, pre-grouped by relation symbol and indexed by
    argument value. *)

(** [ground_of_literals ls] indexes ground literals [ls].
    Raises [Invalid_argument] if some literal is not ground. *)
let ground_of_literals ls =
  let count = ref 0 in
  List.iter
    (fun l ->
      incr count;
      if not (Literal.is_ground l) then
        invalid_arg ("Subsumption.ground_of_literals: " ^ Literal.to_string l))
    ls;
  let tmp = Hashtbl.create 16 in
  let by_pred_pos_value = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let p = Literal.pred l in
      let bucket = try Hashtbl.find tmp p with Not_found -> [] in
      Hashtbl.replace tmp p (l :: bucket);
      Array.iteri
        (fun i t ->
          match t with
          | Term.Const v ->
              let key = (p, i, v) in
              let n, b =
                try Hashtbl.find by_pred_pos_value key
                with Not_found -> (0, [])
              in
              Hashtbl.replace by_pred_pos_value key (n + 1, l :: b)
          | Term.Var _ -> ())
        (Literal.args l))
    ls;
  let by_pred = Hashtbl.create 16 in
  Hashtbl.iter (fun p b -> Hashtbl.replace by_pred p (Array.of_list b)) tmp;
  { by_pred; by_pred_pos_value; literal_count = !count }

let ground_size g = g.literal_count

let ground_literals g =
  Hashtbl.fold
    (fun _ arr acc -> Array.fold_left (fun acc l -> l :: acc) acc arr)
    g.by_pred []

(* Ground literals possibly matching [lit] under [subst]: if some argument is
   bound (a constant, or a variable bound by [subst]), probe the smallest
   value-index bucket; otherwise fall back to the predicate bucket. *)
let candidate_literals g subst lit =
  let p = Literal.pred lit in
  let args = Literal.args lit in
  let best = ref None in
  Array.iteri
    (fun i t ->
      let bound_value =
        match t with
        | Term.Const v -> Some v
        | Term.Var x -> Substitution.find_opt x subst
      in
      match bound_value with
      | None -> ()
      | Some v ->
          let len, bucket =
            try Hashtbl.find g.by_pred_pos_value (p, i, v)
            with Not_found -> (0, [])
          in
          (match !best with
          | Some (blen, _) when blen <= len -> ()
          | _ -> best := Some (len, bucket)))
    args;
  match !best with
  | Some (_, bucket) -> bucket
  | None -> (
      match Hashtbl.find_opt g.by_pred p with
      | None -> []
      | Some arr -> Array.to_list arr)

(* Substitutions extending [subst] that map [lit] into [g]. *)
let candidates g subst lit =
  candidate_literals g subst lit
  |> List.filter_map (fun gl -> Substitution.match_literal subst lit gl)

(** {1 Prefix evaluation with substitution sets}

    Bottom clauses list their body in construction order, so each literal is
    (almost always) connected to earlier literals. That makes left-to-right
    evaluation with a {e set of partial substitutions} — the frontier of all
    ways the prefix maps into the ground clause — both fast and exactly what
    ARMG needs: the first literal whose frontier dies is the {e blocking
    atom} of Section 2.3.2. The frontier is capped at [cap] substitutions
    (stride-subsampled when it overflows), which makes the test approximate
    in the under-approximating direction only. *)

type verdict =
  | Covered of Substitution.t  (** a witness substitution *)
  | Blocked of int  (** 1-based index of the blocking body literal *)

let default_frontier_cap = 24

(** [step_frontier_n ?cap g frontier ~frontier_n lit] advances the frontier
    across one body literal: all extensions of frontier substitutions that
    map [lit] into [g], deduplicated (duplicates arise when [lit] is already
    fully bound), capped at [cap] (expansion stops at [4 × cap] raw
    extensions), and rotated so a truncated tail gets its turn at the next
    literal. An empty result means [lit] blocks. *)
let step_frontier_n ?(cap = default_frontier_cap) ?budget g frontier
    ~frontier_n lit =
  (* Fair expansion: every frontier substitution gets an equal share of the
     [3 × cap] expansion budget. A global first-come cut-off would only ever
     extend the first few chains, silently discarding the binding diversity
     the stride-truncation below works to preserve. [frontier_n] is the
     caller-tracked size of [frontier]: every producer of a frontier already
     knows its length, so the hot loop never recounts a list. *)
  let per_subst = max 2 (3 * cap / max 1 frontier_n) in
  let out = ref [] and out_n = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun s' ->
          out := s' :: !out;
          incr out_n)
        (Util.take per_subst (candidates g s lit)))
    frontier;
  let out_n = !out_n in
  (* Truncate a frontier of [n] substitutions in [order] (an array in the
     frontier's logical order): rotation below [cap] so a truncated tail
     gets its turn at the next literal, else a stride-spread sample — kept
     over the lexicographic head because neighbouring substitutions share
     early-variable bindings, and a frontier keeping only one binding of a
     shared variable would falsely block any later literal needing
     another. *)
  let finish order n =
    if n <= cap then
      if n = 0 then ([], 0)
      else begin
        let rotated = ref [ order.(0) ] in
        for i = n - 1 downto 1 do
          rotated := order.(i) :: !rotated
        done;
        (!rotated, n)
      end
    else begin
      Budget.hit_opt budget Budget.Coverage_truncated;
      (List.init cap (fun i -> order.(i * n / cap)), cap)
    end
  in
  (* Deduplication costs |out| log |out| map comparisons; tiny frontiers
     cannot meaningfully explode, so skip it for them. *)
  if out_n <= 8 then
    if out_n <= cap then
      match !out with
      | [] -> ([], 0)
      | x :: tl -> (tl @ [ x ], out_n)
    else finish (Array.of_list !out) out_n
  else begin
    (* In-place sort + adjacent-uniq over an array: same ascending output
       as [List.sort_uniq Substitution.compare] (duplicate substitutions
       are structurally identical), with the deduplicated count tracked
       instead of recounted. *)
    let arr = Array.of_list !out in
    Array.sort Substitution.compare arr;
    let m = ref 1 in
    for i = 1 to out_n - 1 do
      if Substitution.compare arr.(!m - 1) arr.(i) <> 0 then begin
        arr.(!m) <- arr.(i);
        incr m
      end
    done;
    finish arr !m
  end

(** [eval_prefix ?cap ?budget ~subst c g] evaluates the body of [c] against
    [g] left to right starting from [subst], one {!step_frontier_n} per body
    literal; frontier truncations report into [budget]. *)
let eval_prefix ?cap ?budget ~subst c g =
  Obs.Trace.span ~cat:"subsumption" "eval_prefix" @@ fun () ->
  let rec go i frontier frontier_n = function
    | [] -> (
        match frontier with
        | s :: _ -> Covered s
        | [] -> assert false)
    | lit :: rest -> (
        match step_frontier_n ?cap ?budget g frontier ~frontier_n lit with
        | [], _ ->
            Obs.Trace.arg "blocked_at" (string_of_int i);
            Blocked i
        | next, n -> go (i + 1) next n rest)
  in
  go 1 [ subst ] 1 (Clause.body c)

(** [covers_ground ?cap ?budget ~subst c g] is the boolean form of
    {!eval_prefix}. *)
let covers_ground ?cap ?budget ~subst c g =
  match eval_prefix ?cap ?budget ~subst c g with
  | Covered _ -> true
  | Blocked _ -> false
