(* The compiled evaluation kernel's contract: bit-identity with the
   symbolic frontier engine, which stays as the test oracle. Coverage-level
   and kernel-level oracle equality (verdicts AND witnesses, including
   truncated frontiers at tiny caps), injectivity of the canonical int key
   the verdict cache is keyed by, and the cache on/off learner A/B. *)

module Coverage = Learning.Coverage
module Learn = Learning.Learn
module Compiled = Logic.Compiled
module Subsumption = Logic.Subsumption
module Term = Logic.Term
module Literal = Logic.Literal
module Clause = Logic.Clause
module Value = Relational.Value

let verdict_eq a b =
  match (a, b) with
  | Subsumption.Covered w1, Subsumption.Covered w2 ->
      Logic.Substitution.compare w1 w2 = 0
  | Subsumption.Blocked i, Subsumption.Blocked j -> i = j
  | _ -> false

let truncations b = (Budget.counters b).Budget.coverage_truncated

(* The symbolic oracle for [Coverage.eval]: the frontier engine run
   directly on the context's cached ground BC, head bound first. *)
let oracle ?budget cov c e =
  match Coverage.head_subst c e with
  | None -> Subsumption.Blocked 0
  | Some subst ->
      Subsumption.eval_prefix ?budget ~subst c (Coverage.ground_of cov e)

let kernel_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled coverage equals the symbolic oracle" ~count:8
         QCheck.(pair (int_bound 1000) small_nat)
         (fun (seed, j) ->
           (* Every verdict must agree exactly with the oracle: equal
              blocking indexes, witnesses equal under Substitution.compare.
              First on an uncached context, where every verdict is a real
              evaluation, so the frontier truncations (the budgeted give-up
              path) must also match in number. Then on a default context
              (verdict cache on), each pair asked twice, so whole-key and
              blocked-prefix hits answer too. *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let mk ?budget ~use_cache () =
             Coverage.create ?budget ~use_cache
               d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 77 |])
           in
           let b_c = Budget.create () and b_s = Budget.create () in
           let plain = mk ~budget:b_c ~use_cache:false () in
           let full = mk ~use_cache:true () in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:pos.(j mod Array.length pos)
           in
           let body = Clause.body bc in
           let half = List.filteri (fun i _ -> 2 * i < List.length body) body in
           let clauses = [ bc; Clause.make (Clause.head bc) half ] in
           let examples =
             d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives
           in
           let for_all_pairs f =
             List.for_all (fun c -> List.for_all (f c) examples) clauses
           in
           for_all_pairs (fun c e ->
               verdict_eq (Coverage.eval plain c e)
                 (oracle ~budget:b_s plain c e))
           && truncations b_c = truncations b_s
           && for_all_pairs (fun c e ->
                  let expected = oracle full c e in
                  verdict_eq (Coverage.eval full c e) expected
                  && verdict_eq (Coverage.eval full c e) expected)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled kernel equals eval_prefix at tiny frontier caps"
         ~count:15
         QCheck.(pair (int_bound 1000) (pair small_nat small_nat))
         (fun (seed, (i, j)) ->
           (* Direct kernel-level A/B at caps small enough to force the
              stride-subsampling and sort+dedup paths on nearly every
              literal, cross-pairing the clause's example with the ground
              clause's (so head-blocked and Blocked-k cases both occur). *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let e1 = pos.(i mod Array.length pos) in
           let e2 = pos.(j mod Array.length pos) in
           let ground_clause =
             Learning.Bottom_clause.build_ground d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 55 |])
               ~example:e1
           in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:e2
           in
           let body = Logic.Clause.body ground_clause in
           let sym_g = Subsumption.ground_of_literals body in
           let tab = Compiled.Symtab.create () in
           let comp_g = Compiled.compile_ground tab ~example:e1 body in
           let plan = Compiled.compile tab bc in
           let scratch = Compiled.make_scratch () in
           List.for_all
             (fun cap ->
               let b_c = Budget.create () and b_s = Budget.create () in
               let compiled =
                 Compiled.eval ~cap ~budget:b_c scratch tab plan comp_g
               in
               let agreed =
                 match Coverage.head_subst bc e1 with
                 | None -> compiled = Subsumption.Blocked 0
                 | Some subst ->
                     verdict_eq compiled
                       (Subsumption.eval_prefix ~cap ~budget:b_s ~subst bc
                          sym_g)
               in
               agreed && truncations b_c = truncations b_s)
             [ 3; 8; 24 ]));
  ]


(* ---------------- Canonical key injectivity ---------------- *)

(* Clauses over a tiny vocabulary, so equal keys actually occur: variables
   0..3, constants Int 0..3 and lowercase strings. Constants print as
   Datalog constants (lowercase or numeric, never a variable name), the
   domain on which [Clause.to_string] is itself injective. *)
let term_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Term.Var i) (int_bound 3);
        map (fun i -> Term.Const (Value.Int i)) (int_bound 3);
        map (fun s -> Term.Const (Value.Str s)) (oneofl [ "a"; "b" ]);
      ])

let literal_gen pred =
  QCheck.Gen.(
    map
      (fun args -> Literal.make pred (Array.of_list args))
      (list_size (int_range 1 2) term_gen))

let clause_gen =
  QCheck.Gen.(
    map2 Clause.make (literal_gen "t")
      (list_size (int_bound 3) (oneofl [ "p"; "q" ] >>= literal_gen)))

let map_terms f c =
  let lit l = Literal.make (Literal.pred l) (Array.map f (Literal.args l)) in
  Clause.make (lit (Clause.head c)) (List.map lit (Clause.body c))

(* A second clause related to the first: itself, an α-variant (variables
   renamed by a permutation), a constant/variable collision (variable [i]
   replaced by the constant [Int i], or the reverse), or an unrelated
   clause. *)
let related_gen c =
  QCheck.Gen.(
    oneof
      [
        return c;
        map
          (fun perm ->
            let perm = Array.of_list perm in
            map_terms
              (function Term.Var i -> Term.Var perm.(i) | t -> t)
              c)
          (shuffle_l [ 0; 1; 2; 3 ]);
        map
          (fun v ->
            map_terms
              (function
                | Term.Var i when i = v -> Term.Const (Value.Int i) | t -> t)
              c)
          (int_bound 3);
        map
          (fun v ->
            map_terms
              (function
                | Term.Const (Value.Int i) when i = v -> Term.Var i | t -> t)
              c)
          (int_bound 3);
        clause_gen;
      ])

let key_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"canonical key is injective exactly where to_string is"
         ~count:500
         (QCheck.make
            ~print:(fun (c1, c2) ->
              Clause.to_string c1 ^ "  vs  " ^ Clause.to_string c2)
            QCheck.Gen.(clause_gen >>= fun c -> pair (return c) (related_gen c)))
         (fun (c1, c2) ->
           (* The verdict cache is keyed by the int key alone: two clauses
              may share an entry only if they print identically. *)
           let tab = Compiled.Symtab.create () in
           let key c = Compiled.key (Compiled.compile tab c) in
           key c1 = key c2 = (Clause.to_string c1 = Clause.to_string c2)));
  ]

(* ---------------- Learner A/B: verdict cache on/off ---------------- *)

let learn_uw ?(use_cache = true) ~seed () =
  let d = Datasets.Uw.generate ~seed ~scale:0.4 () in
  let rng = Random.State.make [| seed |] in
  let cov =
    Coverage.create ~use_cache d.Datasets.Dataset.db
      d.Datasets.Dataset.manual_bias ~rng
  in
  let config = { Learn.default_config with timeout = Some 600. } in
  Learn.learn ~config cov ~rng ~positives:d.Datasets.Dataset.positives
    ~negatives:d.Datasets.Dataset.negatives

let render def = Clause.definition_to_string def

let ab_tests =
  [
    Alcotest.test_case "uncached compiled run matches the cached one" `Slow
      (fun () ->
        (* The cache and the kernel compose: toggling the cache never
           changes the definition. The blocked-prefix side of the cache
           has its own A/B in [Test_prune]. *)
        let cached = learn_uw ~use_cache:true ~seed:5 () in
        let uncached = learn_uw ~use_cache:false ~seed:5 () in
        Alcotest.(check string) "identical definition"
          (render cached.Learn.definition)
          (render uncached.Learn.definition);
        Alcotest.(check bool) "nonempty" true (cached.Learn.definition <> []));
  ]

let suite = kernel_properties @ key_properties @ ab_tests
