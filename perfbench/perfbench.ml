(* perfbench.exe — one benchmark job per process, driven by run.py.

   A job runs the real [learn] path through its public functions, in the
   order [Autobias.learn_once] calls them, and times every layer from
   outside, at the call into it:

     1. generate the FLT dataset                   (setup_s)
     2. Autobias.bias_for                          \
     3. Autobias.coverage_context                   | learn_s
     4. Learning.Coverage.warm on every example     |
     5. Learning.Learn.learn                       /
     6. fresh coverage_context + Metrics.evaluate  (score_s: the CLI's
                                                    "training-set fit")
     7. score the definition with the exact oracle (Learning.Query)

   Usage:

     perfbench.exe job --scale X --pool 0|1 --seed N [--trace 1]
     perfbench.exe reference --scale X --pool 0|1 --seed N

   [job] prints one JSON object with the job's timings, counters and learned
   definition. With [--trace 1] the job runs under [Obs.Trace] and the
   object also carries the self-time table and an ARMG/evaluation replay.
   [reference] prints the definition [Autobias.learn_once] learns on the
   same dataset and seed, with its learner counters. A process runs one job, so every job starts from
   a fresh heap. *)

module Dataset = Datasets.Dataset
module Coverage = Learning.Coverage
module Json = Obs.Json

(* Every workload learns FLT's planted rule, which each seed's dataset
   yields exactly; the other generators vary too much from seed to seed
   for a steady benchmark (see README.md). *)
let generate ~scale ~seed = Datasets.Flt.generate ~seed ~scale ()

(* Setup is timed this many times per job (the last copy is used): one
   generation of a small dataset is too short to read on its own. *)
let setups = 3

let now = Budget.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let span name f = Obs.Trace.span ~cat:"perfbench" name f

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let count p xs = List.fold_left (fun n x -> if p x then n + 1 else n) 0 xs
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The library's own ground-BC counter, read as a delta over the learn. *)
let m_ground_bcs = Obs.Metrics.counter "coverage.ground_bcs_built"

let config pool = { Autobias.default_config with pool }

(* Exact training F-measure: the definition run as a conjunctive query over
   the full database, no ground bottom clauses involved. *)
let exact_f1 (d : Dataset.t) definition =
  let covers = Learning.Query.definition_covers d.Dataset.db definition in
  let tp = count covers d.Dataset.positives in
  let fp = count covers d.Dataset.negatives in
  (Evaluation.Metrics.of_counts ~true_positives:tp ~covered:(tp + fp)
     ~positives:(List.length d.Dataset.positives))
    .Evaluation.Metrics.f_measure

(* The learner's degradation counters: the work a learn did, which must
   match [learn_once]'s on a sequential workload. *)
let counters_json c =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Budget.counters_to_assoc c))

let pool_snapshot pool =
  match pool with
  | None -> (0, [||])
  | Some p ->
      let s = Parallel.Pool.stats p in
      (s.Parallel.Pool.tasks_run, Array.copy s.Parallel.Pool.per_worker)

(* --------------------------------------------------------- the job *)

type outcome = {
  fields : (string * Json.t) list;
  data : Dataset.t;
  cov : Coverage.t;  (** the warmed learn context *)
}

let run_job ~scale ~pool ~seed =
  let gc0 = Gc.quick_stat () in
  let tasks0, workers0 = pool_snapshot pool in
  let ground0 = Obs.Metrics.counter_value m_ground_bcs in
  span "job" @@ fun () ->
  let setup_times = ref [] in
  let d = ref None in
  for _ = 1 to setups do
    let data, dt =
      timed (fun () -> span "setup" (fun () -> generate ~scale ~seed))
    in
    setup_times := dt :: !setup_times;
    d := Some data
  done;
  let d = Option.get !d in
  let config = config pool in
  let positives = d.Dataset.positives and negatives = d.Dataset.negatives in
  let rng = Random.State.make [| seed |] in
  let t0 = now () in
  let bias_info =
    span "Autobias.bias_for" (fun () ->
        Autobias.bias_for Autobias.Auto_bias config d ~train_pos:positives)
  in
  let bias = bias_info.Autobias.bias in
  let cov =
    span "Autobias.coverage_context" (fun () ->
        Autobias.coverage_context config d bias ~rng)
  in
  let (), warm_s =
    timed (fun () ->
        span "Coverage.warm" (fun () ->
            Coverage.warm ?pool cov (positives @ negatives)))
  in
  let r =
    span "Learn.learn" (fun () ->
        Learning.Learn.learn ~config:(Autobias.learn_config config) cov ~rng
          ~positives ~negatives)
  in
  let learn_s = now () -. t0 in
  let ground_bcs = Obs.Metrics.counter_value m_ground_bcs - ground0 in
  let tasks1, workers1 = pool_snapshot pool in
  let definition = r.Learning.Learn.definition in
  let _fit, score_s =
    timed (fun () ->
        span "score" (fun () ->
            let cov = Autobias.coverage_context config d bias ~rng in
            Evaluation.Metrics.evaluate cov definition ~positives ~negatives))
  in
  let f1_exact, query_s =
    timed (fun () -> span "Query.check" (fun () -> exact_f1 d definition))
  in
  let gc1 = Gc.quick_stat () in
  let stats = r.Learning.Learn.stats in
  let c = r.Learning.Learn.degradation.Budget.counters in
  let cache = Coverage.cache_stats cov and prune = Coverage.prune_stats cov in
  let funnel = Obs.Funnel.total (Obs.Funnel.snapshot ()) in
  let inds, ind_s =
    match bias_info.Autobias.induction with
    | Some ind ->
        (List.length ind.Discovery.Generate.inds, ind.Discovery.Generate.ind_time)
    | None -> (0, 0.)
  in
  let pool_tasks = tasks1 - tasks0 in
  let max_worker =
    Array.fold_left max 0 (Array.mapi (fun i n -> n - workers0.(i)) workers1)
  in
  let f x = Json.Float x and i x = Json.Int x in
  let fields =
    [
      ("seed", i seed);
      ("definition", Json.Str (Logic.Clause.definition_to_string definition));
      ( "status",
        Json.Str
          (Budget.status_to_string r.Learning.Learn.degradation.Budget.status) );
      ("counters", counters_json c);
      ("setup_s", Json.List (List.rev_map f !setup_times));
      ("learn_s", f learn_s);
      ("score_s", f score_s);
      ( "peak_heap_mb",
        f (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
      ("f1_exact", f f1_exact);
      ("discovery.bias_s", f bias_info.Autobias.bias_time);
      ("discovery.ind_s", f ind_s);
      ("discovery.inds", i inds);
      ("bias.definitions", i (Bias.Language.size bias));
      ("coverage.warm_s", f warm_s);
      ("coverage.ground_bcs", i ground_bcs);
      ("armg.calls", i funnel.Obs.Funnel.generated);
      ("learn.search_s", f stats.Learning.Learn.elapsed);
      ("learn.candidates_evaluated", i stats.Learning.Learn.candidates_evaluated);
      ("learn.clauses", i stats.Learning.Learn.clauses);
      ("learn.seeds_skipped", i stats.Learning.Learn.seeds_skipped);
      ("coverage.tries", i c.Budget.subsumption_tries);
      ( "coverage.memo_hit_rate",
        f (ratio cache.Coverage.hits (cache.Coverage.hits + cache.Coverage.misses)) );
      ("coverage.memo_misses", i cache.Coverage.misses);
      ("coverage.inherited", i c.Budget.coverage_inherited);
      ("coverage.truncated", i c.Budget.coverage_truncated);
      ("coverage.exhausted", i c.Budget.subsumption_exhausted);
      ("prune.probes", i prune.Coverage.probes);
      ("prune.hit_rate", f (ratio prune.Coverage.hits prune.Coverage.probes));
      ("prune.constraints", i prune.Coverage.constraints);
      ("prune.candidates_pruned", i c.Budget.candidates_pruned);
      ("pool.tasks_run", i pool_tasks);
      ("pool.max_worker_share", f (ratio max_worker pool_tasks));
      ("gc.minor_mwords", f ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6));
      ("gc.major_collections", i (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("query.check_s", f query_s);
    ]
  in
  { fields; data = d; cov }

(* ------------------------------------------------------ traced job *)

(* Rows of the self-time table. A span's self time goes to the first layer
   in this list named anywhere on its path, so ground-BC work counts as
   ground-BC work wherever it happens (warm, lazily in the learner, or in
   scoring), and coverage tests inside [evaluate_candidate] count as
   evaluation. [beam_step]'s own self time is ARMG generation; [warm_wait]
   is [Coverage.warm] waiting on pool workers. The job root's own self time
   is the [unattributed] row. Only the calling domain's spans count: they
   tile the job wall, while pool workers run beside it. *)
let layers =
  [
    ("ground_bc", [ "ground_bc" ]);
    ("evaluation", [ "evaluate_candidate" ]);
    ("reduce", [ "reduce" ]);
    ("acceptance", [ "count_many"; "covered_many"; "coverage_count" ]);
    ("seed_bc", [ "bottom_clause" ]);
    ("armg", [ "beam_step" ]);
    ("warm_wait", [ "Coverage.warm" ]);
    ("learner", [ "Learn.learn" ]);
    ("discovery", [ "Autobias.bias_for" ]);
    ("coverage_context", [ "Autobias.coverage_context" ]);
    ("score", [ "score" ]);
    ("query", [ "Query.check" ]);
    ("setup", [ "setup" ]);
  ]

let layer_of path =
  match
    List.find_opt
      (fun (_, names) -> List.exists (fun n -> List.mem n path) names)
      layers
  with
  | Some (layer, _) -> layer
  | None -> "unattributed"

let trace_fields () =
  let rows =
    List.filter
      (fun r -> match r.Obs.Trace.row_path with "job" :: _ -> true | _ -> false)
      (Obs.Trace.summary_rows ())
  in
  let self = Hashtbl.create 16 in
  let wall = ref 0. in
  List.iter
    (fun r ->
      if r.Obs.Trace.row_path = [ "job" ] then wall := r.Obs.Trace.total_s;
      let l = layer_of r.Obs.Trace.row_path in
      let cur = Option.value (Hashtbl.find_opt self l) ~default:0. in
      Hashtbl.replace self l (cur +. r.Obs.Trace.self_s))
    rows;
  let queue_wait_s =
    List.fold_left
      (fun acc ev ->
        match List.assoc_opt "queue_wait_us" ev.Obs.Trace.args with
        | Some us when ev.Obs.Trace.name = "pool_task" ->
            acc +. (float_of_string us /. 1e6)
        | _ -> acc)
      0. (Obs.Trace.events ())
  in
  let row l = Json.Float (Option.value (Hashtbl.find_opt self l) ~default:0.) in
  [
    ("trace.wall_s", Json.Float !wall);
    ( "trace.layers",
      Json.Obj
        (List.map (fun (l, _) -> (l, row l)) layers
        @ [ ("unattributed", row "unattributed") ]) );
    ("trace.dropped", Json.Int (Obs.Trace.dropped ()));
    ("pool.queue_wait_s", Json.Float queue_wait_s);
  ]

(* ARMG and evaluation replay on the warmed learn context: seed bottom
   clauses chained through [Armg.generalize] over every [stride]-th
   positive, the way [bench scaling] builds its candidates; each generalized
   candidate is then counted with [Coverage.count_many] over the first 50
   positives and 50 negatives. *)
let replay ~seed { data = d; cov; _ } =
  let bias = Coverage.bias cov in
  let bc = Autobias.bc_config Autobias.default_config in
  let rng = Random.State.make [| seed; 0xa2e6 |] in
  let positives = d.Dataset.positives in
  let examples =
    Logic.Util.take 50 positives @ Logic.Util.take 50 d.Dataset.negatives
  in
  let per_seed = 8 in
  let stride = max 1 (List.length positives / per_seed) in
  let gen_ms = ref [] and eval_us = ref [] in
  List.iter
    (fun example ->
      let c =
        ref
          (Learning.Bottom_clause.build ~config:bc d.Dataset.db bias ~rng
             ~example)
      in
      List.iteri
        (fun i e ->
          if i mod stride = 0 && i / stride < per_seed then begin
            let g, dt =
              timed (fun () -> Learning.Armg.generalize cov !c ~example:e)
            in
            gen_ms := (dt *. 1e3) :: !gen_ms;
            match g with
            | Some c' ->
                c := c';
                let _, dt =
                  timed (fun () -> Coverage.count_many cov c' examples)
                in
                eval_us :=
                  (dt *. 1e6 /. float_of_int (List.length examples)) :: !eval_us
            | None -> ()
          end)
        positives)
    (Logic.Util.take 3 positives);
  [
    ("armg.generalize_ms_p50", Json.Float (median !gen_ms));
    ("coverage.eval_us_p50", Json.Float (median !eval_us));
  ]

(* ------------------------------------------------------------ main *)

let reference ~scale ~pool ~seed =
  let d = generate ~scale ~seed in
  let r =
    Autobias.learn_once ~config:(config pool) Autobias.Auto_bias d
      ~rng:(Random.State.make [| seed |])
      ~train_pos:d.Dataset.positives ~train_neg:d.Dataset.negatives
  in
  [
    ( "definition",
      Json.Str (Logic.Clause.definition_to_string r.Autobias.definition) );
    ( "counters",
      counters_json
        (Option.get r.Autobias.degradation).Budget.counters );
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe job|reference --scale X --pool 0|1 --seed N \
     [--trace 0|1]";
  exit 2

let () =
  let mode, args =
    match Array.to_list Sys.argv with
    | _ :: m :: rest -> (m, rest)
    | _ -> usage ()
  in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let num of_string k =
    match of_string (get k) with Some n -> n | None -> usage ()
  in
  let scale = num float_of_string_opt "scale" in
  let seed = num int_of_string_opt "seed" in
  let traced = List.assoc_opt "trace" opts = Some "1" in
  let run pool =
    match mode with
    | "reference" -> reference ~scale ~pool ~seed
    | "job" when traced ->
        Obs.Trace.enable ~capacity:(1 lsl 20) ();
        let o = run_job ~scale ~pool ~seed in
        let t = trace_fields () in
        Obs.Trace.disable ();
        o.fields @ t @ replay ~seed o
    | "job" -> (run_job ~scale ~pool ~seed).fields
    | _ -> usage ()
  in
  let fields =
    match get "pool" with
    | "1" ->
        Parallel.Pool.with_pool ~size:(Parallel.Pool.default_size ()) (fun p ->
            run (Some p))
    | "0" -> run None
    | _ -> usage ()
  in
  print_endline (Json.to_string (Json.Obj fields))
