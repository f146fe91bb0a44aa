(* The resource-governance layer (budgets, cancellation, fault injection):
   the anytime contract of Learn.learn — an elapsed deadline returns
   immediately with a valid partial definition, a generous one changes
   nothing, cancellation stops within one job granularity — plus seeded
   chaos in the pool, Budget counter monotonicity, and the typed CSV
   errors. *)

module Pool = Parallel.Pool
module Par = Parallel.Par
module Coverage = Learning.Coverage
module Learn = Learning.Learn

let uw ~seed = Datasets.Uw.generate ~seed ~scale:0.4 ()

let coverage_of ?use_cache d ~seed =
  let rng = Random.State.make [| seed |] in
  ( Coverage.create ?use_cache d.Datasets.Dataset.db
      d.Datasets.Dataset.manual_bias ~rng,
    rng )

let learn_uw ?budget ?timeout ?pool ?use_cache ~seed () =
  let d = uw ~seed in
  let cov, rng = coverage_of ?use_cache d ~seed in
  let config = { Learn.default_config with budget; timeout; pool } in
  Learn.learn ~config cov ~rng ~positives:d.Datasets.Dataset.positives
    ~negatives:d.Datasets.Dataset.negatives

let render def = Logic.Clause.definition_to_string def

(* ---------------- Budget unit behavior ---------------- *)

let budget_tests =
  [
    Alcotest.test_case "fresh budget is live, elapsed deadline expires it"
      `Quick (fun () ->
        let b = Budget.create ~deadline:3600. () in
        Alcotest.(check bool) "live" false (Budget.expired b);
        Alcotest.(check string) "completed" "completed"
          (Budget.status_to_string (Budget.status b));
        let dead = Budget.create ~deadline:0. () in
        Unix.sleepf 0.002;
        Alcotest.(check bool) "expired" true (Budget.expired dead);
        Alcotest.(check string) "deadline_hit" "deadline_hit"
          (Budget.status_to_string (Budget.status dead)));
    Alcotest.test_case "cancellation wins over the deadline" `Quick (fun () ->
        let b = Budget.create ~deadline:0. () in
        Unix.sleepf 0.002;
        Budget.cancel b;
        Alcotest.(check string) "cancelled" "cancelled"
          (Budget.status_to_string (Budget.status b)));
    Alcotest.test_case "scope shares the flag and counters, not the deadline"
      `Quick (fun () ->
        let parent = Budget.create () in
        let child = Budget.scope ~deadline:3600. parent in
        Alcotest.(check bool) "parent unbounded" true
          (Budget.deadline_at parent = None);
        Alcotest.(check bool) "child bounded" true
          (Budget.deadline_at child <> None);
        Budget.hit child Budget.Beam_cut;
        Alcotest.(check int) "counters shared" 1
          (Budget.counters parent).Budget.beam_rounds_cut;
        Budget.cancel child;
        Alcotest.(check bool) "cancellation shared" true
          (Budget.is_cancelled parent));
    Alcotest.test_case "check raises Expired with the status" `Quick (fun () ->
        let b = Budget.create () in
        Budget.check b;
        Budget.cancel b;
        match Budget.check b with
        | () -> Alcotest.fail "expected Expired"
        | exception Budget.Expired st ->
            Alcotest.(check string) "cancelled" "cancelled"
              (Budget.status_to_string st));
    Alcotest.test_case "monotonized clock never goes backwards" `Quick
      (fun () ->
        let prev = ref (Budget.now ()) in
        for _ = 1 to 1000 do
          let t = Budget.now () in
          if t < !prev then Alcotest.fail "now () decreased";
          prev := t
        done);
  ]

let all_events =
  Budget.
    [ Subsumption_try; Subsumption_exhausted; Coverage_truncated;
      Coverage_memo_hit; Coverage_memo_miss; Coverage_inherited; Beam_cut;
      Candidate_abandoned; Job_skipped; Worker_fault; Worker_restarted;
      Job_quarantined; Checkpoint_written; Checkpoint_skipped;
      Candidate_pruned; Constraint_learned ]

let qcheck_tests =
  [
    Alcotest.test_case "the monotonicity property draws every event" `Quick
      (fun () ->
        Alcotest.(check int) "one event per counter"
          (List.length (Budget.counters_to_assoc Budget.zero))
          (List.length all_events));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Budget counters are monotone under any events"
         ~count:200
         QCheck.(
           list (pair (int_bound (List.length all_events - 1)) (int_bound 5)))
         (fun events ->
           let b = Budget.create () in
           let prev = ref (Budget.counters b) in
           List.for_all
             (fun (which, n) ->
               Budget.add b (List.nth all_events which) n;
               Budget.hit b (List.nth all_events which);
               let now = Budget.counters b in
               let ok = Budget.counters_leq !prev now in
               prev := now;
               ok)
             events
           && Budget.counters_leq Budget.zero !prev));
  ]

(* ---------------- anytime combinators ---------------- *)

let anytime_tests =
  [
    Alcotest.test_case "parallel_map_anytime with a live budget == map" `Quick
      (fun () ->
        let b = Budget.create ~deadline:3600. () in
        let xs = List.init 50 Fun.id in
        let expect = List.map (fun x -> Some (x * x)) xs in
        Alcotest.(check bool) "no pool" true
          (Par.parallel_map_anytime ~budget:b (fun x -> x * x) xs = expect);
        Pool.with_pool ~size:2 (fun p ->
            Alcotest.(check bool) "pool" true
              (Par.parallel_map_anytime ~pool:p ~budget:b (fun x -> x * x) xs
              = expect));
        Alcotest.(check int) "nothing skipped" 0
          (Budget.counters b).Budget.jobs_skipped);
    Alcotest.test_case "expired budget skips everything and counts it" `Quick
      (fun () ->
        let b = Budget.create ~deadline:0. () in
        Unix.sleepf 0.002;
        let xs = List.init 20 Fun.id in
        let got = Par.parallel_map_anytime ~budget:b (fun x -> x) xs in
        Alcotest.(check bool) "all None" true (List.for_all (( = ) None) got);
        Alcotest.(check int) "skips counted" 20
          (Budget.counters b).Budget.jobs_skipped);
    Alcotest.test_case
      "cancellation mid-job stops within one item granularity" `Quick
      (fun () ->
        Pool.with_pool ~size:2 (fun p ->
            let b = Budget.create () in
            let canceller =
              Domain.spawn (fun () ->
                  Unix.sleepf 0.1;
                  Budget.cancel b)
            in
            let t0 = Unix.gettimeofday () in
            let got =
              Par.parallel_map_anytime ~pool:p ~budget:b
                (fun x ->
                  Unix.sleepf 0.05;
                  x)
                (List.init 40 Fun.id)
            in
            let elapsed = Unix.gettimeofday () -. t0 in
            Domain.join canceller;
            (* 40 x 50ms is 2s of work even on 3 domains; a cooperative stop
               at 100ms must come back far sooner — in-flight items finish,
               nothing new starts. *)
            Alcotest.(check bool)
              (Printf.sprintf "stopped promptly (%.2fs)" elapsed)
              true (elapsed < 1.0);
            Alcotest.(check bool) "some items were skipped" true
              (List.exists (( = ) None) got);
            Alcotest.(check int) "every slot accounted for" 40
              (List.length got)));
  ]

(* ---------------- fault injection ---------------- *)

let fault_tests =
  [
    Alcotest.test_case "tick decisions are seeded and hit the target rate"
      `Quick (fun () ->
        let f = Chaos.create ~p_fault:0.5 ~seed:7 () in
        for _ = 1 to 1000 do
          try Chaos.tick f with Chaos.Injected _ -> ()
        done;
        Alcotest.(check int) "tickets" 1000 (Chaos.tickets f);
        let hit = Chaos.injected f in
        Alcotest.(check bool)
          (Printf.sprintf "rate near 0.5 (got %d/1000)" hit)
          true
          (hit > 350 && hit < 650);
        (* same seed, same decisions *)
        let g = Chaos.create ~p_fault:0.5 ~seed:7 () in
        for _ = 1 to 1000 do
          try Chaos.tick g with Chaos.Injected _ -> ()
        done;
        Alcotest.(check int) "deterministic" hit (Chaos.injected g));
    Alcotest.test_case "killed pool jobs lose parallelism, never results"
      `Quick (fun () ->
        let chaos = Chaos.create ~p_fault:0.5 ~seed:3 () in
        Pool.with_pool ~size:2 ~chaos (fun p ->
            let xs = List.init 300 Fun.id in
            (* many small jobs: each dispatches helpers, each helper may die *)
            for _ = 1 to 10 do
              Alcotest.(check bool) "results intact" true
                (Par.parallel_map ~pool:p (fun x -> x * 3) xs
                = List.map (fun x -> x * 3) xs)
            done;
            (* the caller can finish whole jobs before workers dequeue the
               helper tasks; give the queue time to drain so the injected
               faults actually land in the stats *)
            let rec settle tries =
              let s = Pool.stats p in
              if s.Pool.dropped > 0 || tries = 0 then s
              else begin
                Unix.sleepf 0.01;
                settle (tries - 1)
              end
            in
            let s = settle 500 in
            Alcotest.(check bool)
              (Printf.sprintf "faults dropped (%d/%d tasks)" s.Pool.dropped
                 s.Pool.tasks_run)
              true
              (s.Pool.dropped > 0);
            Alcotest.(check bool) "at least a quarter of jobs killed" true
              (4 * Chaos.injected chaos >= Chaos.tickets chaos);
            Alcotest.(check bool) "first fault kept for diagnosis" true
              (match Pool.first_fault p with
              | Some { Pool.exn = Chaos.Injected _; _ } -> true
              | _ -> false)));
    Alcotest.test_case "supervision restarts a killed worker" `Quick (fun () ->
        (* size-1 pool, raw tasks (Par wraps exceptions itself, so only a
           raw task can kill a worker): the one worker dies once,
           supervision respawns it, the poisoned task is retried on the
           replacement, and every task still completes. *)
        Pool.with_pool ~size:1 (fun p ->
            let killed_once = Atomic.make false in
            let completed = Atomic.make 0 in
            for i = 0 to 19 do
              Pool.submit p (fun () ->
                  if i = 3 && not (Atomic.exchange killed_once true) then
                    raise (Chaos.Killed 0);
                  Atomic.incr completed)
            done;
            let rec settle tries =
              if Atomic.get completed >= 20 || tries = 0 then ()
              else begin
                Unix.sleepf 0.01;
                settle (tries - 1)
              end
            in
            settle 1000;
            Alcotest.(check int) "every task completed (poisoned one retried)"
              20 (Atomic.get completed);
            let s = Pool.stats p in
            Alcotest.(check int) "one restart" 1 s.Pool.restarts;
            Alcotest.(check int) "nothing quarantined" 0 s.Pool.quarantined));
    Alcotest.test_case "a poisoned job is quarantined with its backtrace"
      `Quick (fun () ->
        Pool.with_pool ~size:1
          ~policy:{ Resilience.Policy.default with job_retries = 2 }
          (fun p ->
            let completed = Atomic.make 0 in
            (* always-fatal task: kills its worker twice, then quarantine *)
            Pool.submit p (fun () -> raise (Chaos.Killed 0));
            for _ = 1 to 10 do
              Pool.submit p (fun () -> Atomic.incr completed)
            done;
            let rec settle tries =
              let s = Pool.stats p in
              if (Atomic.get completed >= 10 && s.Pool.quarantined >= 1)
                 || tries = 0
              then s
              else begin
                Unix.sleepf 0.01;
                settle (tries - 1)
              end
            in
            let s = settle 1000 in
            Alcotest.(check int) "healthy tasks all completed" 10
              (Atomic.get completed);
            Alcotest.(check int) "quarantined once" 1 s.Pool.quarantined;
            Alcotest.(check int) "killed job_retries workers" 2 s.Pool.restarts;
            match Pool.quarantine_records p with
            | [ q ] ->
                Alcotest.(check int) "attempts recorded" 2 q.Pool.attempts;
                Alcotest.(check bool) "exception printed" true
                  (String.length q.Pool.exn > 0)
            | q ->
                Alcotest.failf "expected 1 quarantine record, got %d"
                  (List.length q)));
  ]

(* ---------------- the anytime learner ---------------- *)

let learner_tests =
  [
    Alcotest.test_case "elapsed deadline: immediate valid empty definition"
      `Quick (fun () ->
        let b = Budget.create ~deadline:0. () in
        Unix.sleepf 0.002;
        let t0 = Unix.gettimeofday () in
        let r = learn_uw ~budget:b ~seed:5 () in
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check string) "deadline_hit" "deadline_hit"
          (Budget.status_to_string r.Learn.degradation.Budget.status);
        Alcotest.(check bool) "immediate" true (elapsed < 2.0);
        Alcotest.(check int) "no clauses accepted after expiry" 0
          (List.length r.Learn.definition);
        Alcotest.(check bool) "legacy flag set" true
          r.Learn.stats.Learn.timed_out);
    Alcotest.test_case "pre-cancelled budget: immediate, status cancelled"
      `Quick (fun () ->
        let b = Budget.create () in
        Budget.cancel b;
        let r = learn_uw ~budget:b ~seed:5 () in
        Alcotest.(check string) "cancelled" "cancelled"
          (Budget.status_to_string r.Learn.degradation.Budget.status);
        Alcotest.(check int) "empty" 0 (List.length r.Learn.definition));
    Alcotest.test_case "generous deadline: identical to unbudgeted run" `Slow
      (fun () ->
        let plain = learn_uw ~timeout:600. ~seed:5 () in
        let b = Budget.create ~deadline:3600. () in
        let budgeted = learn_uw ~budget:b ~timeout:600. ~seed:5 () in
        Alcotest.(check string) "same definition"
          (render plain.Learn.definition)
          (render budgeted.Learn.definition);
        Alcotest.(check bool) "learned something" true
          (budgeted.Learn.definition <> []);
        Alcotest.(check string) "completed" "completed"
          (Budget.status_to_string budgeted.Learn.degradation.Budget.status);
        Alcotest.(check bool) "not timed out" false
          budgeted.Learn.stats.Learn.timed_out);
    Alcotest.test_case "cancellation mid-run winds down promptly" `Slow
      (fun () ->
        let b = Budget.create () in
        let canceller =
          Domain.spawn (fun () ->
              Unix.sleepf 0.05;
              Budget.cancel b)
        in
        let t0 = Unix.gettimeofday () in
        let r = learn_uw ~budget:b ~seed:5 () in
        let elapsed = Unix.gettimeofday () -. t0 in
        Domain.join canceller;
        (* Either the run was genuinely done before the cancel landed (fast
           machine) or it must report Cancelled — and in both cases come
           back orders of magnitude before an uncancelled search would. *)
        Alcotest.(check bool)
          (Printf.sprintf "prompt wind-down (%.2fs)" elapsed)
          true (elapsed < 30.);
        let status =
          Budget.status_to_string r.Learn.degradation.Budget.status
        in
        Alcotest.(check bool)
          (Printf.sprintf "cancelled or already finished (%s)" status)
          true
          (status = "cancelled" || elapsed < 0.05));
    Alcotest.test_case
      "chaos pool: same definition as pool=None, faults counted" `Slow
      (fun () ->
        let plain = learn_uw ~timeout:600. ~seed:5 () in
        let chaos = Chaos.create ~p_fault:0.4 ~seed:11 () in
        let under_chaos =
          Pool.with_pool ~size:2 ~chaos (fun p ->
              let r = learn_uw ~timeout:600. ~pool:p ~seed:5 () in
              (r, Pool.stats p))
        in
        let r, s = under_chaos in
        Alcotest.(check string) "identical definition"
          (render plain.Learn.definition)
          (render r.Learn.definition);
        Alcotest.(check bool) "nonempty" true (r.Learn.definition <> []);
        Alcotest.(check bool)
          (Printf.sprintf "workers dropped faults (%d)" s.Pool.dropped)
          true (s.Pool.dropped > 0);
        Alcotest.(check bool) "worker faults surfaced in degradation" true
          (r.Learn.degradation.Budget.counters.Budget.worker_faults > 0);
        Alcotest.(check string) "still completed" "completed"
          (Budget.status_to_string r.Learn.degradation.Budget.status));
    Alcotest.test_case
      "coverage cache on/off: bit-identical definitions, fewer tests" `Slow
      (fun () ->
        (* The acceptance criterion of the incremental coverage engine: on a
           fixed seed the cache must be invisible to results — sequentially
           and under a pool — while doing measurably less subsumption
           work. *)
        let cached = learn_uw ~timeout:600. ~use_cache:true ~seed:5 () in
        let uncached = learn_uw ~timeout:600. ~use_cache:false ~seed:5 () in
        Alcotest.(check string) "sequential: identical definition"
          (render uncached.Learn.definition)
          (render cached.Learn.definition);
        Alcotest.(check bool) "nonempty" true (cached.Learn.definition <> []);
        let tries r =
          r.Learn.degradation.Budget.counters.Budget.subsumption_tries
        in
        Alcotest.(check bool)
          (Printf.sprintf "cache does strictly less work (%d < %d)"
             (tries cached) (tries uncached))
          true
          (tries cached < tries uncached);
        Alcotest.(check bool) "memo hits recorded" true
          (cached.Learn.degradation.Budget.counters.Budget.coverage_memo_hits
          > 0);
        let pooled =
          Pool.with_pool ~size:1 (fun p ->
              learn_uw ~timeout:600. ~pool:p ~use_cache:true ~seed:5 ())
        in
        Alcotest.(check string) "pool=1: identical definition"
          (render uncached.Learn.definition)
          (render pooled.Learn.definition));
    Alcotest.test_case "degradation counters reach the result record" `Slow
      (fun () ->
        (* a tiny budget mid-way through: the run must report *why* it is
           partial, not only that it is *)
        let b = Budget.create ~deadline:0.3 () in
        let r = learn_uw ~budget:b ~seed:5 () in
        let c = r.Learn.degradation.Budget.counters in
        Alcotest.(check bool) "some accounting happened" true
          (c.Budget.subsumption_tries >= 0
          && Budget.counters_leq Budget.zero c);
        Alcotest.(check bool) "status is honest" true
          (Budget.status_to_string r.Learn.degradation.Budget.status
          <> "completed"
          || not r.Learn.stats.Learn.timed_out));
  ]

(* ---------------- typed CSV errors ---------------- *)

let csv_tests =
  [
    Alcotest.test_case "Skip policy drops malformed rows" `Quick (fun () ->
        let rs = Relational.Schema.relation "r" [| "a"; "b" |] in
        let r =
          Relational.Csv.parse_string ~on_error:`Skip ~schema:rs
            "x,1\nbad\n\"unterminated\ny,2\n"
        in
        Alcotest.(check int) "good rows kept" 2
          (Relational.Relation.cardinality r));
    Alcotest.test_case "unterminated quote reports the line" `Quick (fun () ->
        let rs = Relational.Schema.relation "r" [| "a" |] in
        match
          Relational.Csv.parse_string ~schema:rs "ok\n\"never closed\n"
        with
        | _ -> Alcotest.fail "expected Csv.Error"
        | exception Relational.Csv.Error e ->
            Alcotest.(check int) "line" 2 e.Relational.Csv.line;
            Alcotest.(check string) "message" "unterminated quoted field"
              e.Relational.Csv.message);
    Alcotest.test_case "load attaches the file name" `Quick (fun () ->
        let path = Filename.temp_file "autobias_csv" ".csv" in
        let oc = open_out path in
        output_string oc "x,1\ntoo,many,fields\n";
        close_out oc;
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let rs = Relational.Schema.relation "r" [| "a"; "b" |] in
            match Relational.Csv.load ~schema:rs path with
            | _ -> Alcotest.fail "expected Csv.Error"
            | exception Relational.Csv.Error e ->
                Alcotest.(check (option string)) "file" (Some path)
                  e.Relational.Csv.file;
                Alcotest.(check int) "line" 2 e.Relational.Csv.line;
                Alcotest.(check bool) "rendered with position" true
                  (String.length (Relational.Csv.error_to_string e)
                  > String.length path)));
    (* Mutate anything, get a typed error: every single-byte mutation of a
       valid file either still parses or raises [Csv.Error] pointing at one
       of its lines — never a stray exception. *)
    (let valid =
       "alice,1,\"Smith, J.\"\nbob,22,\"say \"\"hi\"\"\"\n\"c,d\",-3,plain\n"
       ^ "dave,007,\"\"\n"
     in
     let lines = List.length (String.split_on_char '\n' valid) in
     let rs = Relational.Schema.relation "r" [| "a"; "b"; "c" |] in
     QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 250 |])
       (QCheck.Test.make ~name:"CSV: any single-byte mutation gives a typed error"
          ~count:250
          QCheck.(pair (int_bound (String.length valid - 1)) (int_bound 255))
          (fun (pos, byte) ->
            let mutated = Bytes.of_string valid in
            Bytes.set mutated pos (Char.chr byte);
            match
              Relational.Csv.parse_string ~schema:rs (Bytes.to_string mutated)
            with
            | _ -> true
            | exception Relational.Csv.Error e ->
                e.Relational.Csv.line >= 1 && e.Relational.Csv.line <= lines)));
  ]

let suite =
  budget_tests @ qcheck_tests @ anytime_tests @ fault_tests @ learner_tests
  @ csv_tests
