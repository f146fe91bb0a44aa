(* The parallel runtime: determinism of the Par combinators against their
   sequential counterparts, exception propagation, pool reuse, nested jobs,
   thread-safe batch coverage, and the headline guarantee — Learn.learn
   produces the identical definition with pool = None and a 1-domain pool. *)

module Pool = Parallel.Pool
module Par = Parallel.Par
module Coverage = Learning.Coverage

(* One pool shared by the whole suite: spawning domains per test would
   dominate runtime. Sized 2 to exercise real concurrency where cores
   allow. AUTOBIAS_CHAOS_LAYERS=pool AUTOBIAS_CHAOS=P turns on seeded fault
   injection into this pool for the whole suite (the CI chaos job): every
   result assertion must still hold, since killed pool jobs only lose
   parallelism, never results. The pool keeps the injector; the registry is
   cleared again so the chaos-registry tests start from an empty one. *)
let shared_pool =
  lazy
    (Chaos.from_env ();
     let chaos = Chaos.get "pool" in
     Chaos.clear ();
     Pool.create ~size:2 ?chaos ())

let pool () = Lazy.force shared_pool

let pool_tests =
  [
    Alcotest.test_case "create clamps size and reports it" `Quick (fun () ->
        Pool.with_pool ~size:0 (fun p ->
            Alcotest.(check int) "clamped up" 1 (Pool.size p));
        Alcotest.(check bool) "default positive" true (Pool.default_size () >= 1));
    Alcotest.test_case "map preserves input order" `Quick (fun () ->
        let xs = List.init 100 Fun.id in
        let got = Par.parallel_map ~pool:(pool ()) (fun x -> x * x) xs in
        Alcotest.(check (list int)) "ordered" (List.map (fun x -> x * x) xs) got);
    Alcotest.test_case "map on the empty list" `Quick (fun () ->
        Alcotest.(check (list int)) "empty" []
          (Par.parallel_map ~pool:(pool ()) (fun x -> x) []));
    Alcotest.test_case "pool is reusable across jobs" `Quick (fun () ->
        let p = pool () in
        for i = 1 to 5 do
          let xs = List.init (10 * i) Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "round %d" i)
            (List.map succ xs)
            (Par.parallel_map ~pool:p succ xs)
        done);
    Alcotest.test_case "exception of the lowest index propagates" `Quick
      (fun () ->
        let p = pool () in
        let f x = if x mod 3 = 0 then failwith (string_of_int x) else x in
        (match Par.parallel_map ~pool:p f (List.init 20 (fun i -> i + 1)) with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure msg ->
            (* 3 is the first failing input *)
            Alcotest.(check string) "lowest index" "3" msg);
        (* the pool survives a failed job *)
        Alcotest.(check (list int)) "alive" [ 2; 4 ]
          (Par.parallel_map ~pool:p (fun x -> 2 * x) [ 1; 2 ]));
    Alcotest.test_case "nested parallel_map on one pool cannot deadlock"
      `Quick (fun () ->
        let p = pool () in
        let got =
          Par.parallel_map ~pool:p
            (fun x ->
              Par.parallel_map ~pool:p (fun y -> (10 * x) + y) [ 1; 2; 3 ])
            [ 1; 2 ]
        in
        Alcotest.(check (list (list int)))
          "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] got);
    Alcotest.test_case "iter visits every element exactly once" `Quick
      (fun () ->
        let n = 200 in
        let hits = Array.make n (Atomic.make 0) in
        Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
        Par.parallel_iter ~pool:(pool ())
          (fun i -> Atomic.incr hits.(i))
          (List.init n Fun.id);
        Array.iter (fun a -> Alcotest.(check int) "once" 1 (Atomic.get a)) hits);
    Alcotest.test_case "submit after shutdown raises" `Quick (fun () ->
        let p = Pool.create ~size:1 () in
        Pool.shutdown p;
        Pool.shutdown p;
        (* idempotent *)
        Alcotest.check_raises "raises"
          (Invalid_argument "Parallel.Pool.submit: pool is shut down")
          (fun () -> Pool.submit p (fun () -> ())));
    Alcotest.test_case "stats: queue drains and per-worker tallies add up"
      `Quick (fun () ->
        (* A private pool (the shared one keeps serving later tests, so its
           counters would be a moving target), shut down before reading:
           the caller's domain helps Par combinators with items, so queued
           tasks can outlive the map as no-ops — only after [shutdown]
           joins the workers are the queue and every tally final. *)
        let p = Pool.create ~size:2 () in
        ignore (Par.parallel_map ~pool:p (fun x -> x + 1) (List.init 64 Fun.id));
        Pool.shutdown p;
        let s = Pool.stats p in
        Alcotest.(check int) "queue drained" 0 s.Pool.queue_depth;
        Alcotest.(check int) "one tally per worker" 2
          (Array.length s.Pool.per_worker);
        (* utilization is conserved: per-worker dequeue tallies must sum to
           the pool-wide dequeue counter *)
        Alcotest.(check int) "per-worker sums to tasks_run" s.Pool.tasks_run
          (Array.fold_left ( + ) 0 s.Pool.per_worker));
  ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parallel_map equals List.map" ~count:50
         QCheck.(list small_int)
         (fun xs ->
           Par.parallel_map ~pool:(pool ()) (fun x -> (x * 7) - 1) xs
           = List.map (fun x -> (x * 7) - 1) xs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parallel_filter_count equals List.filter length"
         ~count:50
         QCheck.(list small_int)
         (fun xs ->
           Par.parallel_filter_count ~pool:(pool ()) (fun x -> x mod 2 = 0) xs
           = List.length (List.filter (fun x -> x mod 2 = 0) xs)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parallel_filter equals List.filter" ~count:50
         QCheck.(list small_int)
         (fun xs ->
           Par.parallel_filter ~pool:(pool ()) (fun x -> x mod 3 <> 0) xs
           = List.filter (fun x -> x mod 3 <> 0) xs));
  ]

(* Batch coverage: count_many on a pool must agree with count_many without
   one — coverage is deterministic per example, so pool size and scheduling
   cannot change any verdict. *)
let coverage_tests =
  [
    Alcotest.test_case "count_many with a pool equals count_many without" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~seed:11 ~scale:0.3 () in
        let rng = Random.State.make [| 11; 77 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias
            ~rng
        in
        let examples =
          d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives
        in
        Coverage.warm ~pool:(pool ()) cov examples;
        let clause =
          Logic.Parser.clause
            "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)"
        in
        Alcotest.(check int) "count"
          (Coverage.count_many cov clause examples)
          (Coverage.count_many ~pool:(pool ()) cov clause examples));
    Alcotest.test_case "parallel warm builds the identical cache" `Quick
      (fun () ->
        let build pool =
          let d = Datasets.Uw.generate ~seed:3 ~scale:0.3 () in
          let rng = Random.State.make [| 3; 99 |] in
          let cov =
            Coverage.create d.Datasets.Dataset.db
              d.Datasets.Dataset.manual_bias ~rng
          in
          Coverage.warm ?pool cov d.Datasets.Dataset.positives;
          List.map
            (fun e -> Logic.Subsumption.ground_size (Coverage.ground_of cov e))
            d.Datasets.Dataset.positives
        in
        Alcotest.(check (list int)) "same ground BCs" (build None)
          (build (Some (pool ()))));
    Alcotest.test_case "ground_of builds the symbolic index on demand" `Quick
      (fun () ->
        (* [warm] builds only the compiled ground; [ground_of] then indexes
           the same body [build_ground] gives under the context's
           per-example RNG, once: a repeat call, and racing calls from the
           pool, all return one physical value. *)
        let d = Datasets.Uw.generate ~seed:4 ~scale:0.3 () in
        let db = d.Datasets.Dataset.db
        and bias = d.Datasets.Dataset.manual_bias in
        let context () =
          Coverage.create db bias ~rng:(Random.State.make [| 4; 21 |])
        in
        let cov = context () in
        let seed_base = Random.State.bits (Random.State.make [| 4; 21 |]) in
        let positives = d.Datasets.Dataset.positives in
        let examples = positives @ d.Datasets.Dataset.negatives in
        Coverage.warm cov examples;
        let bc =
          Learning.Bottom_clause.build db bias
            ~rng:(Random.State.make [| 4; 5 |]) ~example:(List.hd positives)
        in
        let body = Logic.Clause.body bc in
        let clauses =
          [
            bc;
            Logic.Clause.make (Logic.Clause.head bc)
              (List.filteri (fun i _ -> i mod 3 = 0) body);
            Logic.Parser.clause
              "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)";
          ]
        in
        let verdict c g e =
          match Coverage.head_subst c e with
          | None -> "head"
          | Some subst -> (
              match Logic.Subsumption.eval_prefix ~subst c g with
              | Logic.Subsumption.Covered _ -> "covered"
              | Logic.Subsumption.Blocked i -> Printf.sprintf "blocked %d" i)
        in
        List.iter
          (fun e ->
            let reference =
              Learning.Bottom_clause.build_ground db bias
                ~rng:
                  (Random.State.make
                     [| seed_base; Relational.Relation.hash_tuple e |])
                ~example:e
              |> Logic.Clause.body |> Logic.Subsumption.ground_of_literals
            in
            let g = Coverage.ground_of cov e in
            List.iter
              (fun c ->
                Alcotest.(check string) "verdict" (verdict c reference e)
                  (verdict c g e))
              clauses;
            Alcotest.(check bool) "repeat call is the same value" true
              (g == Coverage.ground_of cov e))
          (Logic.Util.take 40 examples);
        let e = List.nth positives 1 in
        let cov = context () in
        Coverage.warm cov [ e ];
        let raced =
          Par.parallel_map ~pool:(pool ()) (Coverage.ground_of cov)
            (List.init 16 (fun _ -> e))
        in
        Alcotest.(check bool) "racing calls share one value" true
          (List.for_all (fun g -> g == Coverage.ground_of cov e) raced));
    Alcotest.test_case "Metrics.evaluate on a pooled context equals sequential"
      `Quick (fun () ->
        List.iter
          (fun ((d : Datasets.Dataset.t), definition) ->
            let evaluate pool =
              let cov =
                Coverage.create ?pool d.Datasets.Dataset.db
                  d.Datasets.Dataset.manual_bias
                  ~rng:(Random.State.make [| 8 |])
              in
              Evaluation.Metrics.evaluate cov
                (List.map Logic.Parser.clause definition)
                ~positives:d.Datasets.Dataset.positives
                ~negatives:d.Datasets.Dataset.negatives
            in
            let seq = evaluate None in
            Alcotest.(check bool) "scores something" true
              (seq.Evaluation.Metrics.recall > 0.);
            Alcotest.(check bool) "same metrics" true
              (Evaluation.Metrics.equal seq (evaluate (Some (pool ())))))
          [
            ( Datasets.Uw.generate ~seed:2 ~scale:0.3 (),
              [
                "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)";
                "advisedBy(X,Y) :- ta(C,X,T), taughtBy(C,Y,T)";
              ] );
            ( Datasets.Flt.generate ~seed:2 ~scale:0.3 (),
              [
                "sameSourceVia(X,Y) :- flight(X,S,D), flight(Y,S,D)";
                "sameSourceVia(X,Y) :- flight(X,S,D), flight(Y,S,E), \
                 carrier(Y,A), carrier(X,A)";
              ] );
          ]);
  ]

(* The headline determinism guarantee (acceptance criterion): a full
   Learn.learn run yields the identical definition sequentially and on a
   1-domain pool, which runs ARMG generation, candidate evaluation and
   acceptance counting on two domains. UW, then HIV. *)
let learn_tests =
  [
    Alcotest.test_case "Learn.learn: pool=None == 1-domain pool" `Slow
      (fun () ->
        let learn generate pool =
          let d = generate () in
          let rng = Random.State.make [| 5 |] in
          let cov =
            Coverage.create d.Datasets.Dataset.db
              d.Datasets.Dataset.manual_bias ~rng
          in
          let config =
            { Learning.Learn.default_config with timeout = Some 60.; pool }
          in
          let r =
            Learning.Learn.learn ~config cov ~rng
              ~positives:d.Datasets.Dataset.positives
              ~negatives:d.Datasets.Dataset.negatives
          in
          Logic.Clause.definition_to_string r.Learning.Learn.definition
        in
        List.iter
          (fun generate ->
            let seq = learn generate None in
            let par =
              Pool.with_pool ~size:1 (fun p -> learn generate (Some p))
            in
            Alcotest.(check string) "identical definition" seq par;
            Alcotest.(check bool) "nonempty" true (seq <> ""))
          [
            (fun () -> Datasets.Uw.generate ~seed:5 ~scale:0.4 ());
            (fun () -> Datasets.Hiv.generate ~seed:5 ~scale:0.3 ());
          ]);
  ]

let suite = pool_tests @ qcheck_tests @ coverage_tests @ learn_tests
