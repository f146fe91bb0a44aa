(* Prune hits: the verdict cache answering a clause from a blocked entry
   stored at a prefix of its key. Soundness (a prune hit replays the exact
   verdict the evaluator would produce — in particular, every pruned
   candidate really has zero positive coverage on that example, and a
   covered entry at a shorter key never answers a longer clause) and the
   source tag each kind of answer carries. And learner-level bit-identity:
   with the cache off — so no clause is ever answered from a blocked
   prefix — runs learn the identical definition at a fixed seed,
   sequentially and under a 2-domain pool. Prune hits may only ever remove
   subsumption work, never change it. *)

module Coverage = Learning.Coverage
module Learn = Learning.Learn
module Pool = Parallel.Pool

let render def = Logic.Clause.definition_to_string def

(* ---------------- soundness properties ---------------- *)

let properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"a prune hit replays the evaluator's exact verdict" ~count:8
         QCheck.(pair (int_bound 1000) small_nat)
         (fun (seed, j) ->
           (* Populate the cache by evaluating a bottom clause and two of
              its prefixes against every example — longest first on one
              context, shortest first on another, so covered entries at
              shorter keys are in the table when the longer clauses are
              asked — then check every answer against an uncached oracle
              context over the same world. A prune hit must be Blocked at
              the index the oracle blocks at, i.e. the pruned (clause,
              example) pair really has zero coverage. *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let mk use_cache =
             Coverage.create ~use_cache d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 77 |])
           in
           let oracle = mk false in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:pos.(j mod Array.length pos)
           in
           let body = Logic.Clause.body bc in
           let prefix k =
             Logic.Clause.make (Logic.Clause.head bc)
               (List.filteri (fun i _ -> k * i < List.length body) body)
           in
           let examples =
             d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives
           in
           let replays clauses =
             let cached = mk true in
             List.iter
               (fun c ->
                 List.iter (fun e -> ignore (Coverage.eval cached c e)) examples)
               clauses;
             List.for_all
               (fun c ->
                 List.for_all
                   (fun e ->
                     match
                       (Coverage.eval_src cached c e, Coverage.eval oracle c e)
                     with
                     | (Logic.Subsumption.Covered _, Coverage.Store), _ ->
                         false (* a prune hit never predicts coverage *)
                     | (Logic.Subsumption.Blocked i, _),
                       Logic.Subsumption.Blocked i' ->
                         i = i'
                     | (Logic.Subsumption.Covered _, _),
                       Logic.Subsumption.Covered _ ->
                         true
                     | _ -> false)
                   examples)
               clauses
           in
           replays [ bc; prefix 2; prefix 4 ]
           && replays [ prefix 4; prefix 2; bc ]));
  ]

(* ---------------- the source tag ---------------- *)

let source_tests =
  [
    Alcotest.test_case "eval_src tags Computed, then Store, then Memo" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~seed:3 ~scale:0.3 () in
        let budget = Budget.create () in
        let cov =
          Coverage.create ~budget d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias ~rng:(Random.State.make [| 3; 77 |])
        in
        let tries () = (Budget.counters budget).Budget.subsumption_tries in
        let bc =
          Learning.Bottom_clause.build d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias
            ~rng:(Random.State.make [| 3; 99 |])
            ~example:(List.hd d.Datasets.Dataset.positives)
        in
        let head = Logic.Clause.head bc and body = Logic.Clause.body bc in
        let prefix k = Logic.Clause.make head (Logic.Util.take k body) in
        (* A (clause, example) pair blocked at literal [i], asked on the
           prefix through literal [i + 1] so a shorter clause sharing the
           blocked prefix exists: the first [i] literals. Found on an
           uncached context so the search leaves [cov] untouched. *)
        let probe =
          Coverage.create ~use_cache:false d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias
            ~rng:(Random.State.make [| 3; 77 |])
        in
        let i, e =
          List.find_map
            (fun e ->
              match Coverage.eval probe bc e with
              | Logic.Subsumption.Blocked i
                when i >= 1 && i < min 20 (List.length body) ->
                  Some (i, e)
              | _ -> None)
            d.Datasets.Dataset.negatives
          |> Option.get
        in
        let clause = prefix (i + 1) and sibling = prefix i in
        let ask c =
          let t0 = tries () in
          let v, src = Coverage.eval_src cov c e in
          (match v with
          | Logic.Subsumption.Blocked j ->
              Alcotest.(check int) "blocked at the same literal" i j
          | Logic.Subsumption.Covered _ -> Alcotest.fail "expected Blocked");
          (src, tries () - t0)
        in
        let src, spent = ask clause in
        Alcotest.(check bool) "first ask is Computed" true
          (src = Coverage.Computed);
        Alcotest.(check int) "first ask runs one try" 1 spent;
        (* The blocked verdict was stored at the prefix through literal
           [i], which is the sibling's whole key: a repeat of the clause is
           answered from that prefix, the sibling from its own key. *)
        let src, spent = ask clause in
        Alcotest.(check bool) "repeat is a prefix hit (Store)" true
          (src = Coverage.Store);
        Alcotest.(check int) "repeat runs no try" 0 spent;
        let src, spent = ask sibling in
        Alcotest.(check bool) "sibling is a whole-key hit (Memo)" true
          (src = Coverage.Memo);
        Alcotest.(check int) "sibling runs no try" 0 spent);
  ]

(* ---------------- learner A/B: prune hits on/off ---------------- *)

let learn_uw ?pool ?(use_cache = true) ~seed () =
  let d = Datasets.Uw.generate ~seed ~scale:0.4 () in
  let rng = Random.State.make [| seed |] in
  let cov =
    Coverage.create ~use_cache d.Datasets.Dataset.db
      d.Datasets.Dataset.manual_bias ~rng
  in
  let config = { Learn.default_config with timeout = Some 600.; pool } in
  let r =
    Learn.learn ~config cov ~rng ~positives:d.Datasets.Dataset.positives
      ~negatives:d.Datasets.Dataset.negatives
  in
  (r, Coverage.prune_stats cov)

let ab_tests =
  [
    Alcotest.test_case
      "prune on/off: bit-identical definitions, tries only shrink" `Slow
      (fun () ->
        (* The correctness bar: prune hits replay exact verdicts, so the
           accepted definition must be bit-identical with the cache (and
           with it every blocked-prefix answer) on and off at a fixed
           seed — and the cache may only remove subsumption work. *)
        let on, stats = learn_uw ~use_cache:true ~seed:5 () in
        let off, _ = learn_uw ~use_cache:false ~seed:5 () in
        Alcotest.(check string) "identical definition"
          (render off.Learn.definition)
          (render on.Learn.definition);
        Alcotest.(check bool) "nonempty" true (on.Learn.definition <> []);
        let counters r = r.Learn.degradation.Budget.counters in
        let tries_on = (counters on).Budget.subsumption_tries in
        let tries_off = (counters off).Budget.subsumption_tries in
        Alcotest.(check bool)
          (Printf.sprintf "fewer or equal tries (%d on vs %d off)" tries_on
             tries_off)
          true (tries_on <= tries_off);
        Alcotest.(check bool) "constraints were learned" true
          ((counters on).Budget.constraints_learned > 0);
        Alcotest.(check bool) "blocked prefixes were probed" true
          (stats.Coverage.probes > 0);
        Alcotest.(check bool) "cache stats agree with the counter" true
          (stats.Coverage.constraints
          <= (counters on).Budget.constraints_learned));
    Alcotest.test_case "prune on under a 2-domain pool: bit-identical" `Slow
      (fun () ->
        (* Workers share the cache's stripe locks; prune hits under the
           pool must still replay the sequential uncached verdicts. *)
        let off, _ = learn_uw ~use_cache:false ~seed:5 () in
        let pooled, _ =
          Pool.with_pool ~size:2 (fun p ->
              learn_uw ~pool:p ~use_cache:true ~seed:5 ())
        in
        Alcotest.(check string) "identical definition"
          (render off.Learn.definition)
          (render pooled.Learn.definition));
  ]

let suite = properties @ source_tests @ ab_tests
