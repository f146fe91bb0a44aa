(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) over the synthetic datasets, plus Bechamel
   micro-benchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                  -- everything
     dune exec bench/main.exe -- table5        -- one experiment
     dune exec bench/main.exe -- table5 --data uw,imdb --folds 3 --timeout 30

   Experiments: table3 figure1 preprocess table5 table6 ablation-aind
   ablation-threshold coverage scaling micro. Absolute numbers differ from the paper
   (our datasets are laptop-scale synthetics; see EXPERIMENTS.md); the
   harness prints the paper's value next to each measured one where the
   paper reports one.

   Every experiment additionally records machine-readable metrics; the
   driver writes them to BENCH_autobias.json at the end of the run so the
   perf trajectory is tracked across PRs. `--domains N` runs the learner
   hot paths on an N-worker domain pool (default: sequential). *)

module Dataset = Datasets.Dataset
module CV = Evaluation.Cross_validation
module Metrics = Evaluation.Metrics

type options = {
  mutable data : string list;
  mutable folds : int;
  mutable timeout : float;
  mutable seed : int;
  mutable scale : float option;  (** overrides the per-dataset default *)
  mutable domains : int option;
      (** worker-domain pool size for the learner's parallel paths *)
  mutable chaos : float option;
      (** pool fault-injection probability — robustness smoke testing: the
          run must finish with the same tables, just slower and with a
          nonzero dropped-task tally in the pool stats *)
  mutable chaos_layers : string option;
      (** comma-separated layer names (or "all") for the chaos registry;
          without it --chaos injects into pool workers only *)
  mutable chaos_kill : float option;
      (** worker-kill probability (pool layer): exercises supervision
          restart/retry/quarantine under the bench workloads *)
  mutable deadline : float option;
      (** global anytime deadline shared by every learning run *)
  mutable trace : string option;
      (** write a Chrome trace-event JSON of the whole bench run here *)
  mutable metrics : string option;
      (** also write the Obs run report to a standalone JSON file (it is
          always embedded in BENCH_autobias.json) *)
}

let options =
  { data = [ "uw"; "imdb"; "hiv"; "flt"; "sys" ]; folds = 3; timeout = 30.;
    seed = 42; scale = None; domains = None; chaos = None; chaos_layers = None;
    chaos_kill = None; deadline = None; trace = None; metrics = None }

(* One pool for the whole run (spawning domains is the expensive part);
   created on first use when --domains (or --chaos, which needs workers to
   inject into) is given, shut down by the driver. *)
let the_pool : Parallel.Pool.t option ref = ref None

let pool () =
  match !the_pool with
  | Some _ as p -> p
  | None -> (
      (* the registry's pool injector: armed by --chaos-layers, or by
         plain --chaos (which means the pool layer) *)
      let chaos = Chaos.get "pool" in
      match (options.domains, chaos) with
      | None, None -> None
      | size, _ ->
          let p = Parallel.Pool.create ?size ?chaos () in
          the_pool := Some p;
          Some p)

(* One budget for the whole run when --deadline is given: every learning
   call scopes its own [timeout]-bounded child, so the counters aggregate
   while per-run clocks stay honest. *)
let the_budget = ref None

let budget () =
  match (!the_budget, options.deadline) with
  | (Some _ as b), _ -> b
  | None, None -> None
  | None, Some s ->
      let b = Budget.create ~deadline:s () in
      the_budget := Some b;
      Some b

(* Per-dataset default scales: chosen so the full harness finishes in tens of
   minutes while each dataset keeps its defining regime (UW small, the rest
   larger). *)
let default_scale = function "uw" -> 1.0 | _ -> 0.6

let generate name =
  let scale = Option.value options.scale ~default:(default_scale name) in
  match Datasets.Registry.generate ~name ~scale ~seed:options.seed with
  | Ok d -> d
  | Error msg -> invalid_arg msg

let selected_datasets () = List.map (fun n -> (n, generate n)) options.data

let config ?(strategy = Sampling.Strategy.Naive) () =
  { Autobias.default_config with strategy; timeout = Some options.timeout;
    budget = budget (); pool = pool () }

let hr () = Fmt.pr "%s@." (String.make 78 '-')

(* ------------------------------------------------------------------ *)
(* Table 3: the language bias AutoBias generates for UW.              *)
(* ------------------------------------------------------------------ *)

let table3 () =
  hr ();
  Fmt.pr "Table 3 — predicate and mode definitions generated for UW@.";
  Fmt.pr "(paper: expert wrote 19 definitions; AutoBias generates ~30%% more)@.";
  hr ();
  let d = generate "uw" in
  let cfg = config () in
  let bi = Autobias.bias_for Autobias.Auto_bias cfg d ~train_pos:d.Dataset.positives in
  Fmt.pr "%a@." Bias.Language.pp bi.Autobias.bias;
  Fmt.pr "@.generated: %d definitions (manual bias for this dataset: %d)@."
    (Bias.Language.size bi.Autobias.bias)
    (Bias.Language.size d.Dataset.manual_bias);
  Bench_json.record "table3"
    [ ("uw.generated_definitions", Bench_json.I (Bias.Language.size bi.Autobias.bias));
      ("uw.manual_definitions", Bench_json.I (Bias.Language.size d.Dataset.manual_bias));
      ("uw.bias_time_s", Bench_json.F bi.Autobias.bias_time) ]

(* ------------------------------------------------------------------ *)
(* Figure 1: the type graph for UW.                                   *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  hr ();
  Fmt.pr "Figure 1 — type graph for the UW data@.";
  Fmt.pr "(solid = exact INDs, dashed = approximate INDs)@.";
  hr ();
  let d = generate "uw" in
  let cfg = config () in
  let bi = Autobias.bias_for Autobias.Auto_bias cfg d ~train_pos:d.Dataset.positives in
  match bi.Autobias.induction with
  | None -> assert false
  | Some ind ->
      Fmt.pr "%a@." Discovery.Type_graph.pp ind.Discovery.Generate.graph;
      Fmt.pr "@.DOT rendering (paste into graphviz):@.%s@."
        (Discovery.Type_graph.to_dot ind.Discovery.Generate.graph)

(* ------------------------------------------------------------------ *)
(* Preprocessing: IND-extraction time per dataset (Section 6.1 text). *)
(* ------------------------------------------------------------------ *)

let preprocess () =
  hr ();
  Fmt.pr "IND-extraction preprocessing time (Section 6.1)@.";
  Fmt.pr "(paper, at full scale: UW 1.2s, HIV 1.4m, IMDb 7.8m, FLT 1m, SYS 2.8m)@.";
  hr ();
  List.iter
    (fun (name, d) ->
      let cfg = config () in
      let bi = Autobias.bias_for Autobias.Auto_bias cfg d ~train_pos:d.Dataset.positives in
      match bi.Autobias.induction with
      | None -> ()
      | Some ind ->
          Fmt.pr "%-6s %7d tuples  %4d INDs  %8.3fs@." name
            (Relational.Database.total_tuples d.Dataset.db)
            (List.length ind.Discovery.Generate.inds)
            ind.Discovery.Generate.ind_time;
          Bench_json.record "preprocess"
            [ (name ^ ".tuples",
               Bench_json.I (Relational.Database.total_tuples d.Dataset.db));
              (name ^ ".inds",
               Bench_json.I (List.length ind.Discovery.Generate.inds));
              (name ^ ".ind_time_s",
               Bench_json.F ind.Discovery.Generate.ind_time) ])
    (selected_datasets ())

(* ------------------------------------------------------------------ *)
(* Table 5: methods of setting language bias.                         *)
(* ------------------------------------------------------------------ *)

let paper_table5 = function
  (* (method, dataset) -> the paper's "P/R/FM time" cell *)
  | "castor", "uw" -> "0.76/0.50/0.60 47s"
  | "castor", "imdb" -> "-/-/- >10h"
  | "castor", "hiv" -> "0.80/0.83/0.81 59.7m"
  | "castor", "flt" -> "-/-/- >10h"
  | "castor", "sys" -> "-/-/- >10h"
  | "noconst", "uw" -> "0.96/0.48/0.64 6.6s"
  | "noconst", "imdb" -> "0.68/0.51/0.58 9.2h"
  | "noconst", "hiv" -> "-/-/- >10h"
  | "noconst", "flt" -> "0/0/0 14m"
  | "noconst", "sys" -> "-/-/- >10h"
  | "manual", "uw" -> "0.93/0.54/0.68 11s"
  | "manual", "imdb" -> "1/0.99/0.99 2.7m"
  | "manual", "hiv" -> "0.74/0.84/0.78 22.6m"
  | "manual", "flt" -> "1/1/1 1m"
  | "manual", "sys" -> "0.9/0.51/0.65 41s"
  | "aleph", "uw" -> "0.78/0.17/0.27 3.5s"
  | "aleph", "imdb" -> "0.66/0.44/0.52 6.4m"
  | "aleph", "hiv" -> "0.72/0.69/0.70 6.2m"
  | "aleph", "flt" -> "0/0/0 6s"
  | "aleph", "sys" -> "0/0/0 6s"
  | "autobias", "uw" -> "0.84/0.54/0.64 24.4s"
  | "autobias", "imdb" -> "1/0.99/0.99 3.21m"
  | "autobias", "hiv" -> "0.80/0.85/0.82 35.1m"
  | "autobias", "flt" -> "1/1/1 5.04m"
  | "autobias", "sys" -> "0.89/0.51/0.65 41s"
  | _ -> "?"

let table5 () =
  hr ();
  Fmt.pr "Table 5 — methods of setting language bias (%d-fold CV, timeout %.0fs/fold)@."
    options.folds options.timeout;
  Fmt.pr "%-6s %-9s | %-30s | %s@." "data" "method" "measured P/R/FM time" "paper P/R/FM time";
  hr ();
  List.iter
    (fun (name, d) ->
      List.iter
        (fun method_ ->
          let mname = Autobias.method_to_string method_ in
          let cell =
            try
              let result =
                Autobias.cross_validate ~config:(config ()) ~k:options.folds
                  method_ d ~seed:options.seed
              in
              let m = result.CV.mean_metrics in
              Bench_json.record "table5"
                [ (name ^ "." ^ mname ^ ".precision", Bench_json.F m.Metrics.precision);
                  (name ^ "." ^ mname ^ ".recall", Bench_json.F m.Metrics.recall);
                  (name ^ "." ^ mname ^ ".f_measure", Bench_json.F m.Metrics.f_measure);
                  (name ^ "." ^ mname ^ ".mean_time_s", Bench_json.F result.CV.mean_time);
                  (name ^ "." ^ mname ^ ".timed_out", Bench_json.B result.CV.any_timed_out) ];
              Fmt.str "%.2f/%.2f/%.2f %s%s" m.Metrics.precision m.Metrics.recall
                m.Metrics.f_measure
                (CV.format_time result.CV.mean_time)
                (if result.CV.any_timed_out then " (timeout)" else "")
            with e -> "error: " ^ Printexc.to_string e
          in
          Fmt.pr "%-6s %-9s | %-30s | %s@." name mname cell
            (paper_table5 (mname, name));
          Format.pp_print_flush Format.std_formatter ())
        Autobias.all_methods;
      hr ())
    (selected_datasets ())

(* ------------------------------------------------------------------ *)
(* Table 6: sampling techniques.                                      *)
(* ------------------------------------------------------------------ *)

let paper_table6 = function
  | "naive", "uw" -> "0.64 24.4s"
  | "naive", "imdb" -> "0.99 3.21m"
  | "naive", "hiv" -> "0.82 35.1m"
  | "naive", "flt" -> "1 5.04m"
  | "naive", "sys" -> "0.65 41s"
  | "random", "uw" -> "0.61 50.23s"
  | "random", "imdb" -> "0.99 3.13m"
  | "random", "hiv" -> "0.83 21.87m"
  | "random", "flt" -> "1 4.96m"
  | "random", "sys" -> "0.39 2.19m"
  | "stratified", "uw" -> "0.54 37.86s"
  | "stratified", "imdb" -> "0.99 4.05m"
  | "stratified", "hiv" -> "0.79 34.16m"
  | "stratified", "flt" -> "1 4.94m"
  | "stratified", "sys" -> "0.35 6.41m"
  | _ -> "?"

let table6 () =
  hr ();
  Fmt.pr "Table 6 — sampling techniques under AutoBias (%d-fold CV, timeout %.0fs/fold)@."
    options.folds options.timeout;
  Fmt.pr "%-6s %-11s | %-22s | %s@." "data" "sampling" "measured FM time" "paper FM time";
  hr ();
  List.iter
    (fun (name, d) ->
      List.iter
        (fun strategy ->
          let sname = Sampling.Strategy.to_string strategy in
          let cell =
            try
              let result =
                Autobias.cross_validate ~config:(config ~strategy ())
                  ~k:options.folds Autobias.Auto_bias d ~seed:options.seed
              in
              Bench_json.record "table6"
                [ (name ^ "." ^ sname ^ ".f_measure",
                   Bench_json.F result.CV.mean_metrics.Metrics.f_measure);
                  (name ^ "." ^ sname ^ ".mean_time_s",
                   Bench_json.F result.CV.mean_time) ];
              Fmt.str "%.2f %s%s" result.CV.mean_metrics.Metrics.f_measure
                (CV.format_time result.CV.mean_time)
                (if result.CV.any_timed_out then " (timeout)" else "")
            with e -> "error: " ^ Printexc.to_string e
          in
          Fmt.pr "%-6s %-11s | %-22s | %s@." name sname cell
            (paper_table6 (sname, name));
          Format.pp_print_flush Format.std_formatter ())
        Sampling.Strategy.all;
      hr ())
    (selected_datasets ())

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out.               *)
(* ------------------------------------------------------------------ *)

let ablation_aind () =
  hr ();
  Fmt.pr "Ablation — approximate INDs on/off (Section 3.1 motivation)@.";
  Fmt.pr "Without approximate INDs the mixed publication[person]-style joins@.";
  Fmt.pr "disappear from the hypothesis space; UW recall should drop.@.";
  hr ();
  let d = generate "uw" in
  List.iter
    (fun use_approximate_inds ->
      let cfg = { (config ()) with Autobias.use_approximate_inds } in
      let result =
        Autobias.cross_validate ~config:cfg ~k:options.folds Autobias.Auto_bias
          d ~seed:options.seed
      in
      Fmt.pr "approximate INDs %-3s : %a  time=%s@."
        (if use_approximate_inds then "on" else "off")
        Metrics.pp_row result.CV.mean_metrics
        (CV.format_time result.CV.mean_time);
      let tag = if use_approximate_inds then "on" else "off" in
      Bench_json.record "ablation-aind"
        [ ("uw.aind_" ^ tag ^ ".f_measure",
           Bench_json.F result.CV.mean_metrics.Metrics.f_measure);
          ("uw.aind_" ^ tag ^ ".mean_time_s", Bench_json.F result.CV.mean_time) ])
    [ true; false ]

let ablation_threshold () =
  hr ();
  Fmt.pr "Ablation — constant-threshold sweep (Section 3.2; paper uses 18%%)@.";
  Fmt.pr "IMDb needs the 'drama' constant: too low a threshold loses the rule,@.";
  Fmt.pr "higher thresholds add modes (bias size) without accuracy gains.@.";
  hr ();
  let d = generate "imdb" in
  List.iter
    (fun ratio ->
      let cfg =
        { (config ()) with
          Autobias.constant_threshold = Discovery.Generate.Relative ratio }
      in
      let bi = Autobias.bias_for Autobias.Auto_bias cfg d ~train_pos:d.Dataset.positives in
      let result =
        Autobias.cross_validate ~config:cfg ~k:options.folds Autobias.Auto_bias
          d ~seed:options.seed
      in
      Fmt.pr "threshold %5.1f%% : bias size %3d, %a  time=%s@." (100. *. ratio)
        (Bias.Language.size bi.Autobias.bias) Metrics.pp_row
        result.CV.mean_metrics
        (CV.format_time result.CV.mean_time);
      let tag = Printf.sprintf "imdb.t%g" (100. *. ratio) in
      Bench_json.record "ablation-threshold"
        [ (tag ^ ".bias_size", Bench_json.I (Bias.Language.size bi.Autobias.bias));
          (tag ^ ".f_measure",
           Bench_json.F result.CV.mean_metrics.Metrics.f_measure) ])
    [ 0.001; 0.05; 0.18; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Ablation: coverage testing engines (the Section 5 motivation).     *)
(* ------------------------------------------------------------------ *)

let ablation_coverage () =
  hr ();
  Fmt.pr "Ablation — coverage testing: θ-subsumption on ground BCs vs direct@.";
  Fmt.pr "query execution over the full database (Section 5). The paper argues@.";
  Fmt.pr "SQL-style evaluation of many-literal clauses is too slow; ground-BC@.";
  Fmt.pr "subsumption amortizes. Both engines run over every UW example.@.";
  hr ();
  let d = generate "hiv" in
  let rng = Random.State.make [| options.seed |] in
  let cov =
    Learning.Coverage.create d.Dataset.db d.Dataset.manual_bias ~rng
  in
  let examples = d.Dataset.positives @ d.Dataset.negatives in
  Learning.Coverage.warm cov examples;
  let crisp =
    Logic.Parser.clause
      "antiHIV(X) :- atm(X,A,n), atm(X,B,o), bond(X,A,B,double)"
  in
  let bottom =
    Learning.Bottom_clause.build d.Dataset.db d.Dataset.manual_bias ~rng
      ~example:(List.hd d.Dataset.positives)
  in
  let time = Obs.Trace.time in
  List.iter
    (fun (label, clause) ->
      let n_sub, t_sub =
        time (fun () -> Learning.Coverage.count_many cov clause examples)
      in
      let n_query, t_query =
        time (fun () -> Learning.Query.count d.Dataset.db clause examples)
      in
      Fmt.pr
        "%-22s (%3d literals): subsumption %4d covered in %8.4fs | query %4d covered in %8.4fs@."
        label (Logic.Clause.size clause) n_sub t_sub n_query t_query;
      let tag = if label = "learned clause" then "learned" else "bottom" in
      Bench_json.record "ablation-coverage"
        [ ("hiv." ^ tag ^ ".subsumption_s", Bench_json.F t_sub);
          ("hiv." ^ tag ^ ".query_s", Bench_json.F t_query) ])
    [ ("learned clause", crisp); ("raw bottom clause", bottom) ]

(* ------------------------------------------------------------------ *)
(* Ablation: clause-search strategies (extension baseline).           *)
(* ------------------------------------------------------------------ *)

let ablation_search () =
  hr ();
  Fmt.pr "Ablation — clause search strategies on the manual bias:@.";
  Fmt.pr "bottom-up ARMG beam (Castor/AutoBias), Progol/Aleph-style best-first@.";
  Fmt.pr "through the bottom clause, and greedy FOIL. FLT separates them:@.";
  Fmt.pr "its rule needs a coupled literal pair that greedy gain cannot reach.@.";
  hr ();
  List.iter
    (fun name ->
      let d = generate name in
      let run label learner =
        let rng = Random.State.make [| options.seed |] in
        let cov =
          Learning.Coverage.create d.Dataset.db d.Dataset.manual_bias ~rng
        in
        let definition, elapsed = Obs.Trace.time (fun () -> learner cov rng) in
        let m =
          Metrics.evaluate cov definition ~positives:d.Dataset.positives
            ~negatives:d.Dataset.negatives
        in
        Fmt.pr "%-5s %-18s %d clauses  %a  %s@." name label
          (List.length definition) Metrics.pp_row m (CV.format_time elapsed);
        Bench_json.record "ablation-search"
          [ (name ^ "." ^ label ^ ".f_measure", Bench_json.F m.Metrics.f_measure);
            (name ^ "." ^ label ^ ".time_s", Bench_json.F elapsed) ];
        Format.pp_print_flush Format.std_formatter ()
      in
      run "armg-beam" (fun cov rng ->
          (Learning.Learn.learn
             ~config:
               { Learning.Learn.default_config with timeout = Some options.timeout }
             cov ~rng ~positives:d.Dataset.positives
             ~negatives:d.Dataset.negatives)
            .Learning.Learn.definition);
      run "progol-best-first" (fun cov rng ->
          (Baselines.Progol.learn
             ~config:
               { Baselines.Progol.default_config with timeout = Some options.timeout }
             cov ~rng ~positives:d.Dataset.positives
             ~negatives:d.Dataset.negatives)
            .Baselines.Progol.definition);
      run "foil-greedy" (fun cov _rng ->
          (Baselines.Foil.learn
             ~config:
               { Baselines.Foil.default_config with timeout = Some options.timeout }
             cov ~positives:d.Dataset.positives
             ~negatives:d.Dataset.negatives)
            .Baselines.Foil.definition);
      hr ())
    (List.filter (fun n -> List.mem n options.data) [ "uw"; "flt" ])

(* ------------------------------------------------------------------ *)
(* Ablation: robustness to label noise.                               *)
(* ------------------------------------------------------------------ *)

let ablation_noise () =
  hr ();
  Fmt.pr "Ablation — label-noise robustness (UW, AutoBias): a fraction of@.";
  Fmt.pr "each class has its training label flipped; scoring uses the clean@.";
  Fmt.pr "labels. The minimum-precision criterion should absorb small noise.@.";
  hr ();
  let clean = generate "uw" in
  List.iter
    (fun fraction ->
      let rng = Random.State.make [| options.seed; 31 |] in
      let noisy = Dataset.flip_labels ~rng ~fraction clean in
      let cfg = config () in
      let r =
        Autobias.learn_once ~config:cfg Autobias.Auto_bias noisy ~rng
          ~train_pos:noisy.Dataset.positives
          ~train_neg:noisy.Dataset.negatives
      in
      let cov =
        Autobias.coverage_context cfg clean r.Autobias.bias_info.Autobias.bias
          ~rng
      in
      let m =
        Metrics.evaluate cov r.Autobias.definition
          ~positives:clean.Dataset.positives ~negatives:clean.Dataset.negatives
      in
      Fmt.pr "noise %4.0f%% : %d clauses, %a (scored on clean labels), %s@."
        (100. *. fraction)
        (List.length r.Autobias.definition)
        Metrics.pp_row m
        (CV.format_time r.Autobias.learn_time);
      Option.iter
        (fun deg -> Fmt.pr "             degradation: %a@." Budget.pp_degradation deg)
        r.Autobias.degradation;
      Bench_json.record "ablation-noise"
        [ (Printf.sprintf "uw.noise%g.f_measure" (100. *. fraction),
           Bench_json.F m.Metrics.f_measure) ];
      Format.pp_print_flush Format.std_formatter ())
    [ 0.0; 0.05; 0.1; 0.2 ]

(* ------------------------------------------------------------------ *)
(* Ablation: typing policies (AutoBias vs the overlap rule of [34]).  *)
(* ------------------------------------------------------------------ *)

let ablation_overlap () =
  hr ();
  Fmt.pr "Ablation — typing policy: AutoBias's IND type graph vs the@.";
  Fmt.pr "single-element-overlap rule of McCreath & Sharma ([34], Section 7).@.";
  Fmt.pr "Joinable attribute pairs proxy the hypothesis-space size; the paper@.";
  Fmt.pr "says overlap typing under-restricts it.@.";
  hr ();
  List.iter
    (fun (name, d) ->
      let auto =
        (Discovery.Generate.induce d.Dataset.db ~target:d.Dataset.target
           ~positive_examples:d.Dataset.positives)
          .Discovery.Generate.bias
      in
      let overlap =
        Discovery.Overlap_bias.induce d.Dataset.db ~target:d.Dataset.target
          ~positive_examples:d.Dataset.positives
      in
      Fmt.pr "%-6s joinable pairs: autobias %4d | overlap[34] %4d  (manual %4d)@."
        name
        (Discovery.Overlap_bias.joinable_pairs auto)
        (Discovery.Overlap_bias.joinable_pairs overlap)
        (Discovery.Overlap_bias.joinable_pairs d.Dataset.manual_bias);
      Bench_json.record "ablation-overlap"
        [ (name ^ ".autobias_pairs",
           Bench_json.I (Discovery.Overlap_bias.joinable_pairs auto));
          (name ^ ".overlap_pairs",
           Bench_json.I (Discovery.Overlap_bias.joinable_pairs overlap)) ];
      Format.pp_print_flush Format.std_formatter ())
    (selected_datasets ());
  (* On perfectly clean domains the two policies coincide; real data has
     dirty columns. Replay UW with one junk column mixing a student id, a
     professor id, a phase and a term — a single shared element per domain
     fuses everything under overlap typing, while the IND error thresholds
     shrug it off. *)
  let d = generate "uw" in
  let dirty =
    Relational.Relation.of_tuples
      (Relational.Schema.relation "scratchpad" [| "token" |])
      [ [| Relational.Value.str "s0" |]; [| Relational.Value.str "p0" |];
        [| Relational.Value.str "pre_quals" |];
        [| Relational.Value.str "autumn" |] ]
  in
  Relational.Database.add_relation d.Dataset.db dirty;
  let auto =
    (Discovery.Generate.induce d.Dataset.db ~target:d.Dataset.target
       ~positive_examples:d.Dataset.positives)
      .Discovery.Generate.bias
  in
  let overlap =
    Discovery.Overlap_bias.induce d.Dataset.db ~target:d.Dataset.target
      ~positive_examples:d.Dataset.positives
  in
  Fmt.pr "%-6s joinable pairs: autobias %4d | overlap[34] %4d  (one dirty 4-value column added)@."
    "uw+dirt"
    (Discovery.Overlap_bias.joinable_pairs auto)
    (Discovery.Overlap_bias.joinable_pairs overlap);
  Fmt.pr "under overlap typing, student[stud] ~ inPhase[phase]: %b; under AutoBias: %b@."
    (Bias.Language.share_type overlap "student" 0 "inPhase" 1)
    (Bias.Language.share_type auto "student" 0 "inPhase" 1)

(* ------------------------------------------------------------------ *)
(* Coverage: the incremental coverage engine, cache on vs off.        *)
(* ------------------------------------------------------------------ *)

(* A/B of the verdict cache on the full learner: the same fixed-seed run
   with the cache on and off. Verdicts are pure and a blocked verdict
   depends only on the prefix through its blocking literal, so the learned
   definitions must be bit-identical, sequentially and under a 2-domain
   pool (which exercises the stripe locks). What the cache buys is fewer
   subsumption tries — uw.tries_ratio = tries(on)/tries(off), gated at
   <= 0.8 in CI — some of them whole candidates scored without any
   evaluation (Budget.Candidate_pruned). Monotone propagation
   (ARMG/reduction inheritance) is on in both modes. *)

let coverage_bench () =
  hr ();
  Fmt.pr "Coverage — verdict cache A/B (cache on/off)@.";
  Fmt.pr "same seed, same learner; definitions must be bit-identical@.";
  hr ();
  let d = generate "uw" in
  let positives = d.Dataset.positives and negatives = d.Dataset.negatives in
  let run ?pool use_cache =
    let b = Budget.create () in
    let rng = Random.State.make [| options.seed; 3 |] in
    let cov =
      Learning.Coverage.create ~use_cache d.Dataset.db d.Dataset.manual_bias
        ~rng
    in
    let config =
      { Learning.Learn.default_config with
        timeout = Some options.timeout; budget = Some b; pool }
    in
    let r, elapsed =
      Obs.Trace.time (fun () ->
          Learning.Learn.learn ~config cov ~rng ~positives ~negatives)
    in
    ( r,
      elapsed,
      Budget.counters b,
      Learning.Coverage.cache_stats cov,
      Learning.Coverage.prune_stats cov )
  in
  let rc, tc, cc, sc, pc = run true in
  let ru, tu, cu, _, _ = run false in
  let render def = Logic.Clause.definition_to_string def in
  let identical =
    render rc.Learning.Learn.definition = render ru.Learning.Learn.definition
  in
  let rp, _, _, _, _ =
    Parallel.Pool.with_pool ~size:2 (fun p -> run ~pool:p true)
  in
  let identical_pool =
    render ru.Learning.Learn.definition = render rp.Learning.Learn.definition
  in
  let requests = sc.Learning.Coverage.hits + sc.Learning.Coverage.misses in
  let hit_rate =
    if requests = 0 then 0.
    else float_of_int sc.Learning.Coverage.hits /. float_of_int requests
  in
  let tries_ratio =
    if cu.Budget.subsumption_tries = 0 then 1.
    else
      float_of_int cc.Budget.subsumption_tries
      /. float_of_int cu.Budget.subsumption_tries
  in
  Fmt.pr "cache on : %8.3fs  %7d subsumption tries  %7d inherited  %5d \
          candidates pruned@." tc
    cc.Budget.subsumption_tries cc.Budget.coverage_inherited
    cc.Budget.candidates_pruned;
  Fmt.pr "cache off: %8.3fs  %7d subsumption tries  %7d inherited@." tu
    cu.Budget.subsumption_tries cu.Budget.coverage_inherited;
  Fmt.pr
    "cache: %d whole-key hits / %d requests (%.1f%%), %d blocked-prefix \
     hits, %d entries (%d blocked); tries ratio on/off %.2fx; wall speedup \
     %.2fx@."
    sc.Learning.Coverage.hits requests (100. *. hit_rate)
    pc.Learning.Coverage.hits sc.Learning.Coverage.entries
    pc.Learning.Coverage.constraints tries_ratio (tu /. tc);
  Fmt.pr "definitions identical: %s (sequential) / %s (2-domain pool), %d clauses@."
    (if identical then "YES" else "NO -- DETERMINISM BUG")
    (if identical_pool then "YES" else "NO -- DETERMINISM BUG")
    (List.length rc.Learning.Learn.definition);
  Bench_json.record "coverage"
    [ ("uw.cached_s", Bench_json.F tc);
      ("uw.uncached_s", Bench_json.F tu);
      ("uw.speedup", Bench_json.F (tu /. tc));
      ("uw.cached_tries", Bench_json.I cc.Budget.subsumption_tries);
      ("uw.uncached_tries", Bench_json.I cu.Budget.subsumption_tries);
      ("uw.tries_ratio", Bench_json.F tries_ratio);
      ("uw.memo_hits", Bench_json.I sc.Learning.Coverage.hits);
      ("uw.memo_misses", Bench_json.I sc.Learning.Coverage.misses);
      ("uw.memo_entries", Bench_json.I sc.Learning.Coverage.entries);
      ("uw.hit_rate", Bench_json.F hit_rate);
      ("uw.prefix_hits", Bench_json.I pc.Learning.Coverage.hits);
      ("uw.constraints_learned", Bench_json.I cc.Budget.constraints_learned);
      ("uw.candidates_pruned", Bench_json.I cc.Budget.candidates_pruned);
      ("uw.inherited", Bench_json.I cc.Budget.coverage_inherited);
      ("uw.clauses", Bench_json.I (List.length rc.Learning.Learn.definition));
      ("uw.identical_on_vs_off", Bench_json.B identical);
      ("uw.identical_pool2", Bench_json.B identical_pool);
      ("uw.identical", Bench_json.B (identical && identical_pool)) ];
  (* ---- Compiled kernel vs the symbolic oracle, per evaluation ---- *)
  hr ();
  Fmt.pr "Coverage — compiled evaluation A/B (int-coded kernel vs symbolic)@.";
  hr ();
  (* Per-eval latency distribution: one beam-step-shaped workload (bottom
     clauses plus ARMG generalization chains), every (clause, example) pair
     timed individually on an UNCACHED context, so each compiled sample is
     a real evaluation, not a memo probe, against the symbolic frontier
     engine ([Subsumption.eval_prefix]) run directly on the same cached
     ground BC. Exact percentiles from the sorted arrays — the process-wide
     Obs histogram (coverage.eval_s) is log-bucketed and sees only the
     compiled side, so it cannot give an honest A/B. *)
  let cov =
    Learning.Coverage.create ~use_cache:false d.Dataset.db
      d.Dataset.manual_bias ~rng:(Random.State.make [| options.seed; 3 |])
  in
  let examples = positives @ negatives in
  let candidates =
    let rng = Random.State.make [| options.seed; 11 |] in
    let acc = ref [] in
    List.iter
      (fun seed ->
        let c =
          ref (Learning.Bottom_clause.build d.Dataset.db d.Dataset.manual_bias
                 ~rng ~example:seed)
        in
        acc := !c :: !acc;
        List.iteri
          (fun i e ->
            if i mod 3 = 0 then
              match Learning.Armg.generalize cov !c ~example:e with
              | Some c' ->
                  c := c';
                  acc := c' :: !acc
              | None -> ())
          positives)
      (Logic.Util.take 4 positives);
    !acc
  in
  let symbolic c e =
    match Learning.Coverage.head_subst c e with
    | None -> Logic.Subsumption.Blocked 0
    | Some subst ->
        Logic.Subsumption.eval_prefix ~subst c (Learning.Coverage.ground_of cov e)
  in
  (* One pass per engine over every pair; min of 2 back-to-back runs per
     pair drops timer noise without letting the cache answer (the context
     is uncached). *)
  let time_evals eval =
    let ts = ref [] and verdicts = ref [] in
    List.iter
      (fun c ->
        List.iter
          (fun e ->
            let t0 = Unix.gettimeofday () in
            let v = eval c e in
            let t1 = Unix.gettimeofday () in
            ignore (eval c e);
            let t2 = Unix.gettimeofday () in
            ts := Float.min (t1 -. t0) (t2 -. t1) :: !ts;
            verdicts := v :: !verdicts)
          examples)
      candidates;
    let a = Array.of_list !ts in
    Array.sort compare a;
    (a, !verdicts)
  in
  Learning.Coverage.warm cov examples;
  let a_c, v_c = time_evals (Learning.Coverage.eval cov) in
  let a_s, v_s = time_evals symbolic in
  let verdicts_agree =
    List.for_all2
      (fun x y ->
        match (x, y) with
        | Logic.Subsumption.Covered w1, Logic.Subsumption.Covered w2 ->
            Logic.Substitution.compare w1 w2 = 0
        | Logic.Subsumption.Blocked i, Logic.Subsumption.Blocked j -> i = j
        | _ -> false)
      v_c v_s
  in
  let pct = Obs.Metrics.percentile in
  let p50_c = pct a_c 0.50 and p95_c = pct a_c 0.95 in
  let p50_s = pct a_s 0.50 and p95_s = pct a_s 0.95 in
  Fmt.pr "per-eval latency over %d evaluations (%d candidates x %d examples):@."
    (Array.length a_c) (List.length candidates) (List.length examples);
  Fmt.pr "compiled : p50 %8.1fus  p95 %8.1fus@." (1e6 *. p50_c) (1e6 *. p95_c);
  Fmt.pr "symbolic : p50 %8.1fus  p95 %8.1fus@." (1e6 *. p50_s) (1e6 *. p95_s);
  Fmt.pr "speedup  : p50 %7.2fx   p95 %7.2fx; verdicts agree on every pair: %s@."
    (p50_s /. Float.max p50_c 1e-9)
    (p95_s /. Float.max p95_c 1e-9)
    (if verdicts_agree then "YES" else "NO -- SOUNDNESS BUG");
  Bench_json.record "coverage"
    [ ("uw.compiled_verdicts_agree", Bench_json.B verdicts_agree);
      ("uw.eval_count", Bench_json.I (Array.length a_c));
      ("uw.eval_p50_compiled_s", Bench_json.F p50_c);
      ("uw.eval_p95_compiled_s", Bench_json.F p95_c);
      ("uw.eval_p50_symbolic_s", Bench_json.F p50_s);
      ("uw.eval_p95_symbolic_s", Bench_json.F p95_s);
      ("uw.eval_p50_speedup", Bench_json.F (p50_s /. Float.max p50_c 1e-9));
      ("uw.eval_p95_speedup", Bench_json.F (p95_s /. Float.max p95_c 1e-9)) ]

(* ------------------------------------------------------------------ *)
(* Scaling: pooled beam-candidate evaluation equals sequential.       *)
(* ------------------------------------------------------------------ *)

(* The workload mirrors one beam step of the learner: a set of ARMG-derived
   candidate clauses, each counted against every training example through
   the warmed coverage context — the path that dominates learning cost
   (Section 5). It runs once sequentially and once on a 2-domain pool;
   coverage is deterministic per example, so both must produce identical
   counts. No wall time is taken: at bench scales one pass lasts a few
   milliseconds, so a pool-size timing sweep measures noise. Pool speed is
   measured end to end by perfbench's pooled [flt-pool] workload and by
   [autobias_cli learn --domains N]. A full Learn.learn determinism check
   (pool = None vs a 1-domain pool) and a verdict-cache A/B close the
   experiment. *)

let scaling () =
  hr ();
  Fmt.pr "Scaling — pooled beam-candidate evaluation (determinism)@.";
  hr ();
  let d = generate "uw" in
  let rng = Random.State.make [| options.seed |] in
  (* Uncached context: a cached context would answer the pooled pass from
     the verdicts the sequential pass stored instead of evaluating. The
     cache's own effect is measured separately at the end. *)
  let cov =
    Learning.Coverage.create ~use_cache:false d.Dataset.db
      d.Dataset.manual_bias ~rng
  in
  let positives = d.Dataset.positives and negatives = d.Dataset.negatives in
  let examples = positives @ negatives in
  Learning.Coverage.warm cov examples;
  (* Candidate set: ARMG generalization chains from a few seeds, exactly
     what a beam step evaluates. *)
  let candidates = ref [] in
  List.iter
    (fun seed ->
      let c =
        ref (Learning.Bottom_clause.build d.Dataset.db d.Dataset.manual_bias
               ~rng ~example:seed)
      in
      candidates := !c :: !candidates;
      List.iteri
        (fun i e ->
          if i mod 3 = 0 then
            match Learning.Armg.generalize cov !c ~example:e with
            | Some c' ->
                c := c';
                candidates := c' :: !candidates
            | None -> ())
        positives)
    (Logic.Util.take 4 positives);
  let candidates = !candidates in
  Fmt.pr "workload: %d candidates x %d examples per evaluation pass@."
    (List.length candidates) (List.length examples);
  let eval_all pool =
    Parallel.Par.parallel_map ?pool
      (fun c -> Learning.Coverage.count_many cov c examples)
      candidates
  in
  let deterministic =
    eval_all None
    = Parallel.Pool.with_pool ~size:2 (fun p -> eval_all (Some p))
  in
  Fmt.pr "counts sequential == 2-domain pool: %s@."
    (if deterministic then "IDENTICAL" else "DIVERGED (determinism bug)");
  (* Full-learner determinism: pool = None and a 1-domain pool must learn
     the identical definition on a fixed seed. *)
  let learn_with pool =
    let rng = Random.State.make [| options.seed; 7 |] in
    let cov =
      Learning.Coverage.create d.Dataset.db d.Dataset.manual_bias ~rng
    in
    let config =
      { Learning.Learn.default_config with
        timeout = Some options.timeout; pool }
    in
    (Learning.Learn.learn ~config cov ~rng ~positives ~negatives)
      .Learning.Learn.definition
  in
  let def_seq = learn_with None in
  let def_par =
    Parallel.Pool.with_pool ~size:1 (fun p -> learn_with (Some p))
  in
  let identical =
    Logic.Clause.definition_to_string def_seq
    = Logic.Clause.definition_to_string def_par
  in
  Fmt.pr "Learn.learn sequential == 1-domain pool: %s (%d clauses)@."
    (if identical then "IDENTICAL" else "DIVERGED")
    (List.length def_seq);
  (* Verdict-cache A/B over the same workload: three evaluation passes (a
     beam re-scores overlapping candidates constantly), counting actual
     subsumption tests through the Budget counters. With the cache, repeat
     passes are all hits, so the off/on ratio must clear ~2x. *)
  let memo_tries use_cache =
    let b = Budget.create () in
    let rng = Random.State.make [| options.seed |] in
    let cov =
      Learning.Coverage.create ~use_cache ~budget:b d.Dataset.db
        d.Dataset.manual_bias ~rng
    in
    Learning.Coverage.warm cov examples;
    let counts = ref [] in
    for _ = 1 to 3 do
      counts :=
        List.map (fun c -> Learning.Coverage.count_many cov c examples) candidates
    done;
    (!counts, (Budget.counters b).Budget.subsumption_tries)
  in
  let counts_on, tries_on = memo_tries true in
  let counts_off, tries_off = memo_tries false in
  let memo_ratio =
    if tries_on = 0 then 0. else float_of_int tries_off /. float_of_int tries_on
  in
  if counts_on <> counts_off then
    Fmt.pr "!! memo changed coverage counts (determinism bug)@.";
  Fmt.pr
    "verdict memo over 3 passes: %d tries with cache, %d without (%.2fx fewer)@."
    tries_on tries_off memo_ratio;
  Bench_json.record "scaling"
    [ ("candidates", Bench_json.I (List.length candidates));
      ("examples", Bench_json.I (List.length examples));
      ("counts_deterministic", Bench_json.B deterministic);
      ("learn_identical_seq_vs_1domain", Bench_json.B identical);
      ("memo_tries_on", Bench_json.I tries_on);
      ("memo_tries_off", Bench_json.I tries_off);
      ("memo_tries_ratio", Bench_json.F memo_ratio);
      ("memo_counts_identical", Bench_json.B (counts_on = counts_off)) ]

(* ------------------------------------------------------------------ *)
(* Resilience: checkpoint overhead and recovery time.                 *)
(* ------------------------------------------------------------------ *)

(* The checkpoint/resume layer's costs, measured on the full UW learner at
   the same fixed seed: wall-clock overhead of snapshotting at every clause
   boundary (vs the identical run with no sink), the serialized snapshot
   size, the time a resumed run takes to reach its first new clause
   boundary, and — the invariant everything else rests on — that the
   resumed definition is bit-identical to the uninterrupted one. *)

let resilience_bench () =
  hr ();
  Fmt.pr "Resilience — checkpoint overhead, snapshot size, recovery time@.";
  Fmt.pr "same seed; resumed definition must be bit-identical@.";
  hr ();
  let d = generate "uw" in
  let positives = d.Dataset.positives and negatives = d.Dataset.negatives in
  let run ?checkpoint ?resume () =
    let rng = Random.State.make [| options.seed; 13 |] in
    let cov =
      Learning.Coverage.create d.Dataset.db d.Dataset.manual_bias ~rng
    in
    let config =
      { Learning.Learn.default_config with
        timeout = Some options.timeout;
        checkpoint;
        checkpoint_every = 1;
        resume }
    in
    Obs.Trace.time (fun () ->
        Learning.Learn.learn ~config cov ~rng ~positives ~negatives)
  in
  (* min of 3: learner runs are seconds-long; the min strips warmup and
     allocator noise so a ≤5% overhead bound is actually measurable *)
  let best_of_3 f =
    let r1, t1 = f () in
    let _, t2 = f () in
    let _, t3 = f () in
    (r1, min t1 (min t2 t3))
  in
  let r0, t_base = best_of_3 (fun () -> run ()) in
  let tmp = Filename.temp_file "autobias_bench" ".ckpt.json" in
  let checkpoints = ref [] in
  let sink ck =
    checkpoints := ck :: !checkpoints;
    Resilience.Checkpoint.save ck tmp
  in
  let r1, t_ck = best_of_3 (fun () -> checkpoints := []; run ~checkpoint:sink ()) in
  let n_checkpoints = List.length !checkpoints in
  let ck_bytes =
    match !checkpoints with
    | [] -> 0
    | ck :: _ -> String.length (Obs.Json.to_string (Resilience.Checkpoint.to_json ck))
  in
  let overhead_pct =
    if t_base <= 0. then 0. else 100. *. (t_ck -. t_base) /. t_base
  in
  let render = Logic.Clause.definition_to_string in
  let checkpointed_identical =
    render r0.Learning.Learn.definition = render r1.Learning.Learn.definition
  in
  (* Resume from the earliest snapshot (boundary 1) and clock the time to
     the first post-resume clause boundary — the "back in business" lag. *)
  let resume_identical, recovery_s =
    match List.rev !checkpoints with
    | [] -> (checkpointed_identical, 0.)
    | first :: _ ->
        let t_first = ref None in
        let t_start = Unix.gettimeofday () in
        let probe _ck =
          if !t_first = None then t_first := Some (Unix.gettimeofday () -. t_start);
          `Skipped
        in
        let r2, t_resume = run ~checkpoint:probe ~resume:first () in
        ( render r0.Learning.Learn.definition
          = render r2.Learning.Learn.definition,
          Option.value !t_first ~default:t_resume )
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  Fmt.pr "baseline     : %8.3fs@." t_base;
  Fmt.pr "checkpointed : %8.3fs  (%d snapshots, %d bytes each, every boundary)@."
    t_ck n_checkpoints ck_bytes;
  Fmt.pr "overhead     : %7.2f%%  (acceptance bound: 5%%)@." overhead_pct;
  Fmt.pr "recovery     : %8.3fs to the first post-resume clause boundary@."
    recovery_s;
  Fmt.pr "definitions identical: checkpointed %s / resumed %s@."
    (if checkpointed_identical then "YES" else "NO -- CHECKPOINT PERTURBED THE RUN")
    (if resume_identical then "YES" else "NO -- RESUME DIVERGED");
  Bench_json.record "resilience"
    [ ("uw.baseline_s", Bench_json.F t_base);
      ("uw.checkpointed_s", Bench_json.F t_ck);
      ("uw.checkpoint_overhead_pct", Bench_json.F overhead_pct);
      ("uw.checkpoint_bytes", Bench_json.I ck_bytes);
      ("uw.checkpoints_written", Bench_json.I n_checkpoints);
      ("uw.recovery_first_clause_s", Bench_json.F recovery_s);
      ("uw.checkpointed_identical", Bench_json.B checkpointed_identical);
      ("uw.resume_identical", Bench_json.B resume_identical) ]

(* ------------------------------------------------------------------ *)
(* Serving: closed-loop load generation against the learning daemon.  *)
(* ------------------------------------------------------------------ *)

(* Two measurements. First a closed-loop soak: N client domains drive
   learn jobs through the daemon's bounded queue on a supervised pool
   (chaos-injected when --chaos-layers is given), and every job must end
   in exactly one of completed / degraded / rejected / quarantined /
   failed. Then, with chaos cleared, a single request through a pool-less
   daemon must produce a definition bit-identical to the direct library
   call — serving must not perturb learning. This experiment runs last
   (and clears the chaos registry), so keep it at the end of the list. *)
let server_bench () =
  hr ();
  Fmt.pr "Serving — closed-loop load against the learning daemon@.";
  Fmt.pr
    "admission control, per-job deadlines, retry/quarantine; every job \
     accounted@.";
  hr ();
  let catalog = Server.Catalog.create () in
  let scale = Option.value options.scale ~default:0.2 in
  let timeout = Float.min options.timeout 5. in
  let template = Server.Protocol.default_common "uw" in
  let requests i =
    Server.Protocol.Learn
      {
        template with
        Server.Protocol.scale;
        seed = options.seed + (i mod 4);
        timeout;
        deadline = Some 3.0;
      }
  in
  let config =
    {
      Server.Daemon.default_config with
      max_in_flight = 2;
      max_queue = 1;
      max_attempts = 3;
      policy = { Resilience.Policy.default with seed = options.seed };
    }
  in
  let clients = 6 and jobs = 60 in
  let handler = Server.Handler.default catalog in
  let summary, stats =
    Parallel.Pool.with_pool
      ~size:(Option.value options.domains ~default:2)
      ?chaos:(Chaos.get "pool")
      (fun p ->
        let daemon = Server.Daemon.create ~pool:p ~config handler in
        let s =
          Server.Loadgen.run ~clients ~jobs ~reject_retries:40 daemon requests
        in
        Server.Daemon.drain ~deadline:10. daemon;
        (s, Server.Daemon.stats daemon))
  in
  Fmt.pr
    "%d jobs, %d clients, %.1fs wall: %d completed, %d degraded, %d \
     rejected (%d reject events), %d quarantined, %d failed (%d retries)@."
    summary.Server.Loadgen.jobs summary.Server.Loadgen.clients
    summary.Server.Loadgen.wall_s summary.Server.Loadgen.completed
    summary.Server.Loadgen.degraded summary.Server.Loadgen.rejected
    summary.Server.Loadgen.reject_events summary.Server.Loadgen.quarantined
    summary.Server.Loadgen.failed summary.Server.Loadgen.retries;
  Fmt.pr "latency: p50 %.3fs  p95 %.3fs  p99 %.3fs; reject rate %.2f@."
    summary.Server.Loadgen.p50_s summary.Server.Loadgen.p95_s
    summary.Server.Loadgen.p99_s summary.Server.Loadgen.reject_rate;
  Fmt.pr "every job accounted for: %s@."
    (if summary.Server.Loadgen.accounted then "YES"
     else "NO -- A SUBMISSION WAS SILENTLY DROPPED");
  let chaos_ticks, chaos_fired =
    List.fold_left
      (fun (t, f) (_, c) ->
        ( t + c.Chaos.n_tickets,
          f + c.Chaos.n_injected + c.Chaos.n_killed + c.Chaos.n_delayed ))
      (0, 0) (Chaos.snapshot ())
  in
  (* identity check below must be chaos-free: injected faults would shift
     retry counts, not results — but keep the comparison exact *)
  Chaos.clear ();
  let direct_definition =
    let c = Server.Protocol.common_of_request (requests 0) in
    let d =
      match
        Server.Catalog.load catalog ~name:c.Server.Protocol.dataset
          ~scale:c.Server.Protocol.scale ~seed:c.Server.Protocol.seed
      with
      | Ok d -> d
      | Error e -> failwith (Server.Catalog.error_to_string e)
    in
    let config =
      {
        Autobias.default_config with
        strategy = Sampling.Strategy.of_string c.Server.Protocol.strategy;
        timeout = Some c.Server.Protocol.timeout;
        budget = Some (Budget.create ());
        pool = None;
      }
    in
    let rng = Random.State.make [| c.Server.Protocol.seed |] in
    let r =
      Autobias.learn_once ~config
        (Autobias.method_of_string c.Server.Protocol.method_)
        d ~rng ~train_pos:d.Dataset.positives ~train_neg:d.Dataset.negatives
    in
    Logic.Clause.definition_to_string r.Autobias.definition
  in
  let served_definition =
    let daemon = Server.Daemon.create ~config handler in
    match Server.Daemon.submit_and_wait daemon (requests 0) with
    | Ok
        {
          Server.Protocol.outcome =
            ( Server.Protocol.Completed payload
            | Server.Protocol.Degraded (payload, _) );
          _;
        } -> (
        match List.assoc_opt "definition" payload with
        | Some (Obs.Json.Str s) -> s
        | _ -> "<no definition in payload>")
    | Ok _ -> "<job did not complete>"
    | Error rej -> Server.Protocol.rejection_to_string rej
  in
  let single_identical = direct_definition = served_definition in
  Fmt.pr "served definition identical to direct call: %s@."
    (if single_identical then "YES" else "NO -- SERVING PERTURBED LEARNING");
  Bench_json.record "server"
    [ ("server.jobs", Bench_json.I summary.Server.Loadgen.jobs);
      ("server.clients", Bench_json.I summary.Server.Loadgen.clients);
      ("server.completed", Bench_json.I summary.Server.Loadgen.completed);
      ("server.degraded", Bench_json.I summary.Server.Loadgen.degraded);
      ("server.rejected", Bench_json.I summary.Server.Loadgen.rejected);
      ("server.reject_events",
       Bench_json.I summary.Server.Loadgen.reject_events);
      ("server.quarantined", Bench_json.I summary.Server.Loadgen.quarantined);
      ("server.failed", Bench_json.I summary.Server.Loadgen.failed);
      ("server.retries", Bench_json.I stats.Server.Daemon.retries);
      ("server.wall_s", Bench_json.F summary.Server.Loadgen.wall_s);
      ("server.p50_latency_s", Bench_json.F summary.Server.Loadgen.p50_s);
      ("server.p95_latency_s", Bench_json.F summary.Server.Loadgen.p95_s);
      ("server.p99_latency_s", Bench_json.F summary.Server.Loadgen.p99_s);
      ("server.reject_rate", Bench_json.F summary.Server.Loadgen.reject_rate);
      ("server.outcomes_accounted",
       Bench_json.B summary.Server.Loadgen.accounted);
      ("server.chaos_ticks", Bench_json.I chaos_ticks);
      ("server.chaos_fired", Bench_json.I chaos_fired);
      ("server.single_identical", Bench_json.B single_identical) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core operations.                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  hr ();
  Fmt.pr "Micro-benchmarks (Bechamel, monotonic clock; OLS estimates)@.";
  hr ();
  let open Bechamel in
  let d = Datasets.Uw.generate ~scale:1.0 () in
  let bias = d.Dataset.manual_bias in
  let rng = Random.State.make [| 1 |] in
  let example = List.hd d.Dataset.positives in
  let bc_test strategy =
    let cfg = { Learning.Bottom_clause.default_config with strategy } in
    Test.make
      ~name:("bc-" ^ Sampling.Strategy.to_string strategy)
      (Staged.stage (fun () ->
           ignore
             (Learning.Bottom_clause.build ~config:cfg d.Dataset.db bias ~rng
                ~example)))
  in
  let cov = Learning.Coverage.create d.Dataset.db bias ~rng in
  Learning.Coverage.warm cov [ example ];
  let gold =
    Logic.Parser.clause "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)"
  in
  let ground = Learning.Coverage.ground_of cov example in
  let subsumption_tests =
    [
      Test.make ~name:"subsume-frontier"
        (Staged.stage (fun () ->
             ignore
               (Logic.Subsumption.covers_ground
                  ~subst:Logic.Substitution.empty gold ground)));
    ]
  in
  let flight = Relational.Database.find (generate "flt").Dataset.db "flight" in
  let keys = Relational.Relation.project flight 1 in
  let sampling_tests =
    let sample_test strategy =
      Test.make
        ~name:("sample-" ^ Sampling.Strategy.to_string strategy)
        (Staged.stage (fun () ->
             ignore
               (Sampling.Strategy.sample strategy ~rng ~rel:flight ~pos:1
                  ~known:keys ~size:20 ~constant_positions:[ 1 ])))
    in
    List.map sample_test Sampling.Strategy.all
  in
  let ind_test =
    Test.make ~name:"ind-discovery-uw"
      (Staged.stage (fun () ->
           ignore (Discovery.Ind.discover d.Dataset.db ~extra:[])))
  in
  let armg_test =
    let bc = Learning.Bottom_clause.build d.Dataset.db bias ~rng ~example in
    let e2 = List.nth d.Dataset.positives 1 in
    Test.make ~name:"armg"
      (Staged.stage (fun () ->
           ignore (Learning.Armg.generalize cov bc ~example:e2)))
  in
  let tests =
    Test.make_grouped ~name:"autobias" ~fmt:"%s/%s"
      ([ bc_test Sampling.Strategy.Naive; bc_test Sampling.Strategy.Random;
         bc_test Sampling.Strategy.Stratified ]
      @ subsumption_tests @ sampling_tests
      @ [ ind_test; armg_test ])
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e6 then Fmt.pr "%-34s %10.3f ms/run@." name (ns /. 1e6)
      else Fmt.pr "%-34s %10.1f ns/run@." name ns)
    rows;
  Bench_json.record "micro"
    (List.map (fun (name, ns) -> (name ^ ".ns_per_run", Bench_json.F ns)) rows)

(* ------------------------------------------------------------------ *)
(* Driver.                                                            *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table3", table3);
    ("figure1", figure1);
    ("preprocess", preprocess);
    ("table5", table5);
    ("table6", table6);
    ("ablation-aind", ablation_aind);
    ("ablation-threshold", ablation_threshold);
    ("ablation-coverage", ablation_coverage);
    ("ablation-search", ablation_search);
    ("ablation-overlap", ablation_overlap);
    ("ablation-noise", ablation_noise);
    ("coverage", coverage_bench);
    ("scaling", scaling);
    ("resilience", resilience_bench);
    ("micro", micro);
    (* keep server last: it clears the chaos registry for its identity
       check, which must not disarm chaos under other experiments *)
    ("server", server_bench);
  ]

let usage () =
  Fmt.pr
    "usage: main.exe [EXPERIMENT..] [--data a,b,..] [--folds N] [--timeout S] [--seed N] [--scale F] [--domains N] [--chaos P] [--chaos-layers L,..] [--chaos-kill P] [--deadline S] [--trace FILE.json] [--metrics FILE.json]@.";
  Fmt.pr "experiments: %s (default: all)@."
    (String.concat " " (List.map fst experiments));
  Fmt.pr
    "--domains N runs the learner's hot paths on an N-worker domain pool@.";
  Fmt.pr
    "--chaos P kills each queued pool job with probability P (seeded);\n\
     the tables must come out identical, with faults tallied in the pool stats@.";
  Fmt.pr
    "--chaos-layers L,.. (or 'all') arms the chaos registry per layer at\n\
     the --chaos probability; --chaos-kill P additionally kills pool\n\
     workers (supervision restarts them, retries or quarantines jobs)@.";
  Fmt.pr
    "--deadline S bounds the whole run: learners return best-so-far\n\
     definitions and report their degradation counters@.";
  Fmt.pr
    "--trace FILE records every span (one Chrome trace-event JSON for the\n\
     whole run, loadable in Perfetto) and prints the per-phase summary@.";
  Fmt.pr
    "--metrics FILE also writes the run report (metrics snapshot, phase\n\
     timings) standalone; it is always embedded in BENCH_autobias.json@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse chosen = function
    | [] -> chosen
    | "--data" :: v :: rest ->
        options.data <- String.split_on_char ',' v;
        parse chosen rest
    | "--folds" :: v :: rest ->
        options.folds <- int_of_string v;
        parse chosen rest
    | "--timeout" :: v :: rest ->
        options.timeout <- float_of_string v;
        parse chosen rest
    | "--seed" :: v :: rest ->
        options.seed <- int_of_string v;
        parse chosen rest
    | "--scale" :: v :: rest ->
        options.scale <- Some (float_of_string v);
        parse chosen rest
    | "--domains" :: v :: rest ->
        options.domains <- Some (int_of_string v);
        parse chosen rest
    | "--chaos" :: v :: rest ->
        options.chaos <- Some (float_of_string v);
        parse chosen rest
    | "--chaos-layers" :: v :: rest ->
        options.chaos_layers <- Some v;
        parse chosen rest
    | "--chaos-kill" :: v :: rest ->
        options.chaos_kill <- Some (float_of_string v);
        parse chosen rest
    | "--deadline" :: v :: rest ->
        options.deadline <- Some (float_of_string v);
        parse chosen rest
    | "--trace" :: v :: rest ->
        options.trace <- Some v;
        parse chosen rest
    | "--metrics" :: v :: rest ->
        options.metrics <- Some v;
        parse chosen rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | name :: rest when List.mem_assoc name experiments ->
        parse (chosen @ [ name ]) rest
    | bad :: _ ->
        Fmt.epr "unknown argument %s@." bad;
        usage ();
        exit 1
  in
  let chosen = parse [] args in
  let chosen = if chosen = [] then List.map fst experiments else chosen in
  Chaos.arm ?p_kill:options.chaos_kill ?p_fault:options.chaos
    ?layers:options.chaos_layers ~seed:options.seed ();
  if options.trace <> None then Obs.Trace.enable ();
  (* Provenance: the regression sentinel compares history lines across
     runs, so every line must say which commit/host/toolchain produced it.
     Best-effort — a bench run outside a git checkout still benches. *)
  let git_commit =
    try
      let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  Bench_json.set_meta
    [ ("seed", Bench_json.I options.seed);
      ("folds", Bench_json.I options.folds);
      ("timeout_s", Bench_json.F options.timeout);
      ("data", Bench_json.S (String.concat "," options.data));
      ("domains",
       match options.domains with
       | Some n -> Bench_json.I n
       | None -> Bench_json.S "sequential");
      ("cores_recommended", Bench_json.I (Domain.recommended_domain_count ()));
      ("git_commit", Bench_json.S git_commit);
      ("hostname", Bench_json.S (Unix.gethostname ()));
      ("ocaml_version", Bench_json.S Sys.ocaml_version);
      ("timestamp_s", Bench_json.F (Unix.gettimeofday ()));
      ("experiments", Bench_json.S (String.concat "," chosen)) ];
  let completed = ref [] in
  let failed = ref [] in
  (* Whatever happens below — a failing experiment, a crash in the summary
     code, a pool that refuses to shut down — a valid BENCH_autobias.json
     must exist afterwards, with completions and failures recorded in its
     meta. That is the bench's one contract with CI. *)
  Fun.protect
    ~finally:(fun () ->
      (* overwrite the pre-run value (the request) with what actually
         ran — set_meta replaces by key *)
      Bench_json.set_meta
        [ ("experiments",
           Bench_json.S (String.concat "," (List.rev !completed)));
          ("experiments_failed",
           Bench_json.S
             (String.concat "; "
                (List.rev_map (fun (n, m) -> n ^ ": " ^ m) !failed))) ];
      Bench_json.write "BENCH_autobias.json";
      Bench_json.append_history "BENCH_history.jsonl";
      Fmt.pr
        "@.machine-readable metrics written to BENCH_autobias.json (history \
         line appended to BENCH_history.jsonl)@.")
  @@ fun () ->
  let (), total =
    Obs.Trace.time (fun () ->
        (* One span per experiment: the trace's top-level rows. A failing
           experiment is reported and skipped so the rest still run — and
           so the meta's "experiments" lists what actually completed. *)
        List.iter
          (fun name ->
            match
              Obs.Trace.span ~cat:"bench" name (List.assoc name experiments)
            with
            | () -> completed := name :: !completed
            | exception e ->
                failed := (name, Printexc.to_string e) :: !failed;
                Fmt.epr "!! experiment %s failed: %s@." name
                  (Printexc.to_string e))
          chosen;
        match !the_pool with
        | Some p ->
            let s = Parallel.Pool.stats p in
            Fmt.pr "@.pool: %d domains, %d tasks run, %d faults dropped@."
              s.Parallel.Pool.size s.Parallel.Pool.tasks_run
              s.Parallel.Pool.dropped;
            Bench_json.set_meta
              [ ("pool_tasks_run", Bench_json.I s.Parallel.Pool.tasks_run);
                ("pool_dropped", Bench_json.I s.Parallel.Pool.dropped) ];
            Parallel.Pool.shutdown p
        | None -> ())
  in
  (match !the_budget with
  | Some b ->
      Fmt.pr "budget: %a@." Budget.pp_degradation (Budget.degradation b)
  | None -> ());
  Bench_json.set_meta [ ("total_bench_time_s", Bench_json.F total) ];
  (* The structured run report — config, degradation, metrics snapshot and
     per-phase timings — is always embedded in BENCH_autobias.json;
     --metrics also writes it standalone. *)
  let report =
    Obs.Run_report.make ~name:"bench"
      ~config:
        [ ("seed", Obs.Json.Int options.seed);
          ("folds", Obs.Json.Int options.folds);
          ("timeout_s", Obs.Json.Float options.timeout);
          ("data", Obs.Json.Str (String.concat "," options.data));
          ("experiments", Obs.Json.Str (String.concat "," chosen)) ]
      ?degradation:(Option.map Budget.degradation !the_budget)
      ()
  in
  Bench_json.set_report (Obs.Run_report.to_json report);
  Option.iter
    (fun path ->
      Obs.Run_report.write report path;
      Fmt.pr "wrote run report to %s@." path)
    options.metrics;
  (match options.trace with
  | Some path ->
      Fmt.pr "%s" (Obs.Trace.summary_string ());
      Obs.Trace.export_json path;
      Fmt.pr "wrote trace to %s@." path
  | None -> ());
  Fmt.pr "total bench time: %s@." (CV.format_time total)
