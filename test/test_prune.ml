(* The failure-constraint pruning store's contract: soundness (a prune hit
   replays the exact verdict the evaluator would produce — in particular,
   every pruned candidate really has zero positive coverage on that
   example) and learner-level bit-identity: --no-prune runs learn the
   identical definition at a fixed seed, sequentially and under a 2-domain
   pool. Pruning may only ever remove subsumption work, never change it. *)

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
           (* Populate the store by evaluating a bottom clause and its
              prefixes against every example, then check each probe hit
              against a pruning-off oracle context over the same world:
              the stored verdict must be Blocked at the same index the
              oracle blocks at — i.e. the pruned (clause, example) pair
              really has zero coverage. *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let mk use_pruning =
             Coverage.create ~use_cache:false ~use_pruning
               d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 77 |])
           in
           let pruned = mk true and oracle = mk false in
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
           let clauses = [ bc; prefix 2; prefix 4 ] in
           let examples =
             d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives
           in
           List.iter
             (fun c ->
               List.iter (fun e -> ignore (Coverage.eval pruned c e)) examples)
             clauses;
           List.for_all
             (fun c ->
               List.for_all
                 (fun e ->
                   match Coverage.eval_src pruned c e with
                   | _, (Coverage.Computed | Coverage.Memo) -> true
                   | Logic.Subsumption.Covered _, Coverage.Store ->
                       false (* the store must never predict coverage *)
                   | Logic.Subsumption.Blocked i, Coverage.Store -> (
                       match Coverage.eval oracle c e with
                       | Logic.Subsumption.Blocked i' -> i = i'
                       | Logic.Subsumption.Covered _ -> false))
                 examples)
             clauses));
  ]

(* ---------------- the source tag ---------------- *)

let source_tests =
  [
    Alcotest.test_case "eval_src tags Computed, then Memo, then Store" `Quick
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
          Coverage.create ~use_cache:false ~use_pruning:false
            d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias
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
        let src, spent = ask clause in
        Alcotest.(check bool) "repeat is Memo" true (src = Coverage.Memo);
        Alcotest.(check int) "repeat runs no try" 0 spent;
        let src, spent = ask sibling in
        Alcotest.(check bool) "shared blocked prefix is Store" true
          (src = Coverage.Store);
        Alcotest.(check int) "store answer runs no try" 0 spent);
  ]

(* ---------------- learner A/B: --no-prune ---------------- *)

let learn_uw ?pool ?(use_pruning = true) ~seed () =
  let d = Datasets.Uw.generate ~seed ~scale:0.4 () in
  let rng = Random.State.make [| seed |] in
  let cov =
    Coverage.create ~use_pruning d.Datasets.Dataset.db
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
        (* The correctness bar: pruning is a verdict-preserving cache, so
           the accepted definition must be bit-identical with the store on
           and off at a fixed seed — and the store may only remove
           subsumption work. *)
        let on, stats = learn_uw ~use_pruning:true ~seed:5 () in
        let off, _ = learn_uw ~use_pruning:false ~seed:5 () in
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
        Alcotest.(check bool) "the store was probed" true (stats.probes > 0);
        Alcotest.(check bool) "store stats agree with the counter" true
          (stats.constraints <= (counters on).Budget.constraints_learned));
    Alcotest.test_case "prune on under a 2-domain pool: bit-identical" `Slow
      (fun () ->
        let off, _ = learn_uw ~use_pruning:false ~seed:5 () in
        let pooled, _ =
          Pool.with_pool ~size:2 (fun p ->
              learn_uw ~pool:p ~use_pruning:true ~seed:5 ())
        in
        Alcotest.(check string) "identical definition"
          (render off.Learn.definition)
          (render pooled.Learn.definition));
  ]

let suite = properties @ source_tests @ ab_tests
