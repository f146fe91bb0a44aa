(* Machine-readable benchmark output.

   Every experiment records (key, value) metrics under its experiment name;
   the driver writes the merged map to BENCH_autobias.json at the end of the
   run so the perf trajectory can be tracked across PRs (and uploaded as a
   CI artifact). It renders through {!Obs.Json} as

     { "meta": {..}, "experiments": { "<experiment>": { "<key>": value } } }

   with experiments and keys sorted. *)

type value =
  | F of float
  | I of int
  | S of string
  | B of bool

(* (experiment, metrics) in insertion order; an experiment may record
   several times (e.g. one call per dataset × method cell). *)
let records : (string * (string * value) list) list ref = ref []
let meta : (string * value) list ref = ref []

(* The Obs run report, emitted as a top-level "run_report" section. *)
let report : Obs.Json.t option ref = ref None

let set_report json = report := Some json

let record experiment metrics =
  records := !records @ [ (experiment, metrics) ]

(* Replace-by-key: re-recording a key overwrites its value in place (first
   position wins) instead of emitting a duplicate JSON key — the driver
   re-sets "experiments" after the run loop with what actually completed. *)
let set_meta metrics =
  List.iter
    (fun (k, v) ->
      if List.mem_assoc k !meta then
        meta :=
          List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) !meta
      else meta := !meta @ [ (k, v) ])
    metrics

let value_to_json = function
  | F f -> Obs.Json.Float f (* non-finite floats render as null *)
  | I i -> Obs.Json.Int i
  | S s -> Obs.Json.Str s
  | B b -> Obs.Json.Bool b

(* Canonical key order: sorted, duplicates collapsed to the last recorded
   value. Byte-stable output whatever order experiments ran or re-recorded
   in — the regression sentinel diffs these files and history lines across
   runs, so incidental ordering churn must not look like change. *)
let canonical metrics =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) metrics;
  Obs.Json.Obj
    (Hashtbl.fold (fun k v acc -> (k, value_to_json v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b))

(* Repeated records of one experiment merge; experiments come out sorted
   by name (key order inside each is handled by [canonical]). *)
let fields () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (exp, metrics) ->
      let prev = Option.value (Hashtbl.find_opt tbl exp) ~default:[] in
      Hashtbl.replace tbl exp (prev @ metrics))
    !records;
  let experiments =
    Hashtbl.fold (fun exp metrics acc -> (exp, canonical metrics) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  [ ("meta", canonical !meta); ("experiments", Obs.Json.Obj experiments) ]

let write path =
  let run_report =
    match !report with Some r -> [ ("run_report", r) ] | None -> []
  in
  Obs.Json.write path (Obs.Json.Obj (fields () @ run_report))

(* {2 The bench history} — one compact JSON line per bench run, appended to
   an ever-growing JSONL file. The regression sentinel (bin/autobias_obs
   --gate) reads the newest line and compares it against the committed
   baseline; the provenance fields in meta say which commit/host/core-count
   produced each line. *)

let append_history path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  output_string oc (Obs.Json.to_string (Obs.Json.Obj (fields ())));
  output_char oc '\n';
  close_out oc
