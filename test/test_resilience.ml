(* The resilient-runtime layer: checkpoint snapshots (JSON round-trip,
   version gating, fingerprint validation, atomic save under chaos), the
   supervision policy's deterministic backoff, the layer-tagged chaos
   registry, CSV skip accounting, and the headline property — killing a
   run at any clause boundary and resuming from its snapshot reproduces
   the uninterrupted definition bit-for-bit, sequentially and under a
   pool. *)

module Checkpoint = Resilience.Checkpoint
module Policy = Resilience.Policy
module Pool = Parallel.Pool
module Coverage = Learning.Coverage
module Learn = Learning.Learn
module Json = Obs.Json

let render def = Logic.Clause.definition_to_string def

(* a hand-built snapshot exercising every field *)
let sample_checkpoint () =
  {
    Checkpoint.version = Checkpoint.version;
    fingerprint = "fp-test";
    boundary = 2;
    definition = [];
    uncovered = [ 1; 3; 4 ];
    seeds_skipped = 1;
    consecutive_skips = 1;
    candidates_evaluated = 9;
    rng = Random.State.make [| 42 |];
    counters = [ ("worker_faults", 3); ("jobs_skipped", 1) ];
    elapsed_s = 0.25;
  }

let rng_stream st =
  let st = Random.State.copy st in
  List.init 16 (fun _ -> Random.State.int st 1_000_000)

let with_temp_file f =
  let path = Filename.temp_file "autobias_resilience" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------------- checkpoint snapshots ---------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* An older binary's file: its version stamp, no digest, plus the fields
   that version carried and v3 dropped ([extra]). *)
let old_version_refused ~v ~extra () =
  with_temp_file (fun path ->
      let old =
        match Checkpoint.to_json (sample_checkpoint ()) with
        | Json.Obj fields ->
            Json.Obj
              (List.filter_map
                 (function
                   | "version", _ -> Some ("version", Json.Int v)
                   | "digest", _ -> None
                   | kv -> Some kv)
                 fields
              @ extra)
        | _ -> Alcotest.fail "checkpoint JSON is not an object"
      in
      Json.write path old;
      match Checkpoint.load path with
      | Ok _ -> Alcotest.failf "v%d snapshot was accepted" v
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error names the file's version (%s)" e)
            true
            (contains e (Printf.sprintf "v%d" v));
          Alcotest.(check bool) "error names the version this binary reads"
            true
            (contains e (Printf.sprintf "v%d" Checkpoint.version)))

let checkpoint_tests =
  [
    Alcotest.test_case "save/load round-trips every field" `Quick (fun () ->
        with_temp_file (fun path ->
            let ck = sample_checkpoint () in
            (match Checkpoint.save ck path with
            | `Written -> ()
            | `Skipped -> Alcotest.fail "save skipped without chaos");
            match Checkpoint.load path with
            | Error e -> Alcotest.failf "load failed: %s" e
            | Ok got ->
                Alcotest.(check int) "version" ck.Checkpoint.version
                  got.Checkpoint.version;
                Alcotest.(check string) "fingerprint" ck.Checkpoint.fingerprint
                  got.Checkpoint.fingerprint;
                Alcotest.(check int) "boundary" ck.Checkpoint.boundary
                  got.Checkpoint.boundary;
                Alcotest.(check (list int)) "uncovered"
                  ck.Checkpoint.uncovered got.Checkpoint.uncovered;
                Alcotest.(check int) "seeds_skipped"
                  ck.Checkpoint.seeds_skipped got.Checkpoint.seeds_skipped;
                Alcotest.(check int) "consecutive_skips"
                  ck.Checkpoint.consecutive_skips
                  got.Checkpoint.consecutive_skips;
                Alcotest.(check int) "candidates_evaluated"
                  ck.Checkpoint.candidates_evaluated
                  got.Checkpoint.candidates_evaluated;
                Alcotest.(check (list (pair string int))) "counters"
                  ck.Checkpoint.counters got.Checkpoint.counters;
                Alcotest.(check (float 1e-9)) "elapsed"
                  ck.Checkpoint.elapsed_s got.Checkpoint.elapsed_s;
                Alcotest.(check string) "definition"
                  (render ck.Checkpoint.definition)
                  (render got.Checkpoint.definition);
                (* the restored RNG must replay the exact stream *)
                Alcotest.(check (list int)) "rng stream"
                  (rng_stream ck.Checkpoint.rng)
                  (rng_stream got.Checkpoint.rng)));
    Alcotest.test_case "version mismatch is refused before any payload"
      `Quick (fun () ->
        with_temp_file (fun path ->
            let ck = sample_checkpoint () in
            ignore (Checkpoint.save ck path);
            let ic = open_in path in
            let raw = In_channel.input_all ic in
            close_in ic;
            let tampered =
              match Json.parse raw with
              | Ok (Json.Obj fields) ->
                  Json.Obj
                    (List.map
                       (function
                         | "version", Json.Int v ->
                             ("version", Json.Int (v + 1))
                         | kv -> kv)
                       fields)
              | _ -> Alcotest.fail "saved checkpoint is not a JSON object"
            in
            Json.write path tampered;
            match Checkpoint.load path with
            | Ok _ -> Alcotest.fail "future-version snapshot was accepted"
            | Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "error names the version (%s)" e)
                  true
                  (contains (String.lowercase_ascii e) "version")));
    Alcotest.test_case
      "v1 snapshot (pre constraint store) is refused, naming both versions"
      `Quick
      (old_version_refused ~v:1 ~extra:[]);
    Alcotest.test_case
      "v2 snapshot (with constraint store) is refused, naming both versions"
      `Quick
      (old_version_refused ~v:2 ~extra:[ ("constraints", Json.Str "") ]);
    Alcotest.test_case "load reports unreadable and torn files as Error"
      `Quick (fun () ->
        (match Checkpoint.load "/nonexistent/autobias.ck" with
        | Ok _ -> Alcotest.fail "loaded a nonexistent file"
        | Error _ -> ());
        with_temp_file (fun path ->
            let oc = open_out path in
            output_string oc "{ torn";
            close_out oc;
            match Checkpoint.load path with
            | Ok _ -> Alcotest.fail "loaded torn JSON"
            | Error _ -> ()));
    Alcotest.test_case "validate gates on the config fingerprint" `Quick
      (fun () ->
        let ck = sample_checkpoint () in
        (match Checkpoint.validate ~fingerprint:"fp-test" ck with
        | Ok () -> ()
        | Error e -> Alcotest.failf "matching fingerprint refused: %s" e);
        (match Checkpoint.validate ~fingerprint:"other" ck with
        | Ok () -> Alcotest.fail "mismatched fingerprint accepted"
        | Error _ -> ());
        (* the empty fingerprint is the escape hatch on either side *)
        (match Checkpoint.validate ~fingerprint:"" ck with
        | Ok () -> ()
        | Error e -> Alcotest.failf "empty run fingerprint refused: %s" e);
        match
          Checkpoint.validate ~fingerprint:"anything"
            { ck with Checkpoint.fingerprint = "" }
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "empty snapshot fingerprint refused: %s" e);
    Alcotest.test_case "fingerprint digest is stable and input-sensitive"
      `Quick (fun () ->
        let a = Checkpoint.fingerprint_of_strings [ "uw"; "seq"; "42" ] in
        let b = Checkpoint.fingerprint_of_strings [ "uw"; "seq"; "42" ] in
        let c = Checkpoint.fingerprint_of_strings [ "uw"; "seq"; "43" ] in
        Alcotest.(check string) "stable" a b;
        Alcotest.(check bool) "seed-sensitive" true (a <> c));
    Alcotest.test_case "chaos on the checkpoint layer skips, never tears"
      `Quick (fun () ->
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "checkpoint" ];
        Fun.protect ~finally:Chaos.clear (fun () ->
            let path =
              Filename.concat
                (Filename.get_temp_dir_name ())
                "autobias_ck_chaos.json"
            in
            if Sys.file_exists path then Sys.remove path;
            match Checkpoint.save (sample_checkpoint ()) path with
            | `Written -> Alcotest.fail "p_fault=1 chaos did not skip"
            | `Skipped ->
                Alcotest.(check bool) "target untouched" false
                  (Sys.file_exists path)));
  ]

(* ---------------- supervision policy ---------------- *)

let policy_tests =
  [
    Alcotest.test_case "backoff is exponential, capped and deterministic"
      `Quick (fun () ->
        let p = Policy.default in
        let d1 = Policy.backoff p ~attempt:1 ~salt:0 in
        let d2 = Policy.backoff p ~attempt:2 ~salt:0 in
        let dcap = Policy.backoff p ~attempt:1000 ~salt:0 in
        let lo = 1. -. (p.Policy.jitter /. 2.)
        and hi = 1. +. (p.Policy.jitter /. 2.) in
        Alcotest.(check bool) "first delay near base" true
          (d1 >= p.Policy.backoff_base_s *. lo
          && d1 <= p.Policy.backoff_base_s *. hi);
        Alcotest.(check bool) "grows" true (d2 > d1);
        Alcotest.(check bool) "capped" true
          (dcap <= p.Policy.backoff_max_s *. hi);
        Alcotest.(check (float 0.)) "deterministic" d1
          (Policy.backoff p ~attempt:1 ~salt:0);
        Alcotest.(check bool) "salts decorrelate" true
          (Policy.backoff p ~attempt:4 ~salt:1
          <> Policy.backoff p ~attempt:4 ~salt:2));
  ]

(* ---------------- the chaos registry ---------------- *)

let chaos_tests =
  [
    Alcotest.test_case "layers are gated independently" `Quick (fun () ->
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "memo" ];
        Fun.protect ~finally:Chaos.clear (fun () ->
            Alcotest.(check bool) "configured layer fires" true
              (Chaos.fires "memo");
            Alcotest.(check bool) "unconfigured layer never fires" false
              (Chaos.fires "csv");
            Alcotest.(check (list string)) "active" [ "memo" ]
              (Chaos.active ());
            match Chaos.snapshot () with
            | [ ("memo", c) ] ->
                Alcotest.(check bool) "faults counted" true
                  (c.Chaos.n_injected > 0)
            | s ->
                Alcotest.failf "expected one memo entry, got %d"
                  (List.length s)));
    Alcotest.test_case "\"all\" arms every known layer; clear disarms" `Quick
      (fun () ->
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "all" ];
        Fun.protect ~finally:Chaos.clear (fun () ->
            Alcotest.(check (list string)) "all layers active"
              (List.sort compare Chaos.known_layers)
              (List.sort compare (Chaos.active ())));
        Chaos.clear ();
        Alcotest.(check (list string)) "cleared" [] (Chaos.active ());
        Alcotest.(check bool) "nothing fires after clear" false
          (Chaos.fires "memo"));
    Alcotest.test_case "--chaos P without layers arms exactly the pool"
      `Quick (fun () ->
        (* the flag semantics every frontend shares *)
        Chaos.arm ~p_fault:0.3 ~seed:0 ();
        Fun.protect ~finally:Chaos.clear (fun () ->
            Alcotest.(check (list string)) "pool only" [ "pool" ]
              (Chaos.active ()));
        Chaos.arm ~seed:0 ();
        Alcotest.(check (list string)) "no flags, no layers" []
          (Chaos.active ()));
    Alcotest.test_case "unknown layer names are refused" `Quick (fun () ->
        match Chaos.configure ~p_fault:0.5 ~seed:0 [ "warp-drive" ] with
        | () -> Alcotest.fail "unknown layer accepted"
        | exception Invalid_argument _ -> ());
  ]

(* ---------------- CSV skip accounting ---------------- *)

let csv_tests =
  [
    Alcotest.test_case "Skip-policy drops are tallied with their first cause"
      `Quick (fun () ->
        Relational.Csv.reset_skip_stats ();
        let rs = Relational.Schema.relation "r" [| "a"; "b" |] in
        let r =
          Relational.Csv.parse_string ~on_error:`Skip ~schema:rs
            "x,1\nbad\ny,2\ntoo,many,fields\n"
        in
        Alcotest.(check int) "good rows kept" 2
          (Relational.Relation.cardinality r);
        (match Relational.Csv.skip_stats () with
        | [ ("<string>", s) ] ->
            Alcotest.(check int) "two rows dropped" 2
              s.Relational.Csv.rows_skipped;
            (match s.Relational.Csv.first_bad with
            | Some (line, _) -> Alcotest.(check int) "first bad line" 2 line
            | None -> Alcotest.fail "first_bad not recorded")
        | s -> Alcotest.failf "expected one entry, got %d" (List.length s));
        Relational.Csv.reset_skip_stats ();
        Alcotest.(check int) "reset clears the registry" 0
          (List.length (Relational.Csv.skip_stats ())));
    Alcotest.test_case "csv chaos drops rows as recorded skips" `Quick
      (fun () ->
        Relational.Csv.reset_skip_stats ();
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "csv" ];
        Fun.protect
          ~finally:(fun () ->
            Chaos.clear ();
            Relational.Csv.reset_skip_stats ())
          (fun () ->
            let rs = Relational.Schema.relation "r" [| "a" |] in
            let r =
              Relational.Csv.parse_string ~on_error:`Skip ~file:"chaos.csv"
                ~schema:rs "x\ny\nz\n"
            in
            Alcotest.(check int) "every row dropped by chaos" 0
              (Relational.Relation.cardinality r);
            match Relational.Csv.skip_stats () with
            | [ ("chaos.csv", s) ] ->
                Alcotest.(check int) "drops tallied" 3
                  s.Relational.Csv.rows_skipped
            | s ->
                Alcotest.failf "expected one entry, got %d" (List.length s)));
  ]

(* ---------------- kill + resume bit-identity ---------------- *)

let run_uw ?pool ?checkpoint ?resume ~seed () =
  let d = Datasets.Uw.generate ~seed ~scale:0.25 () in
  let rng = Random.State.make [| seed |] in
  let cov =
    Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
  in
  let config =
    {
      Learn.default_config with
      max_clauses = 2;
      timeout = None;
      clause_timeout = None;
      pool;
      checkpoint;
      checkpoint_every = 1;
      resume;
    }
  in
  Learn.learn ~config cov ~rng ~positives:d.Datasets.Dataset.positives
    ~negatives:d.Datasets.Dataset.negatives

let resume_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "kill at any clause boundary + resume is bit-identical (seq and \
            pool)"
         ~count:3
         QCheck.(int_range 1 40)
         (fun seed ->
           (* Run once with a collecting sink: the snapshots it hands out
              are exactly what --checkpoint writes at each boundary, and
              because the sink gets copies it cannot perturb the run — so
              this run doubles as the uninterrupted reference. *)
           let collected = ref [] in
           let sink ck =
             collected := ck :: !collected;
             `Written
           in
           let reference = run_uw ~checkpoint:sink ~seed () in
           let want = render reference.Learn.definition in
           let plain = run_uw ~seed () in
           if render plain.Learn.definition <> want then
             QCheck.Test.fail_report "checkpoint sink perturbed the run";
           if !collected = [] then
             QCheck.Test.fail_report "no checkpoint was emitted";
           (* resuming from EVERY boundary must replay the same tail *)
           List.iter
             (fun ck ->
               let resumed = run_uw ~resume:ck ~seed () in
               if render resumed.Learn.definition <> want then
                 QCheck.Test.fail_reportf
                   "sequential resume from boundary %d diverged"
                   ck.Checkpoint.boundary)
             !collected;
           (* and a pooled resume from the earliest boundary agrees too *)
           let earliest = List.hd (List.rev !collected) in
           Pool.with_pool ~size:2 (fun p ->
               let resumed = run_uw ~pool:p ~resume:earliest ~seed () in
               if render resumed.Learn.definition <> want then
                 QCheck.Test.fail_reportf
                   "pooled resume from boundary %d diverged"
                   earliest.Checkpoint.boundary);
           true));
    Alcotest.test_case "resume restores progress counters and boundary"
      `Slow (fun () ->
        let collected = ref [] in
        let sink ck =
          collected := ck :: !collected;
          `Written
        in
        let reference = run_uw ~checkpoint:sink ~seed:7 () in
        match List.rev !collected with
        | [] -> Alcotest.fail "no checkpoint emitted"
        | first :: _ ->
            let resumed = run_uw ~resume:first ~seed:7 () in
            Alcotest.(check string) "same definition"
              (render reference.Learn.definition)
              (render resumed.Learn.definition);
            Alcotest.(check int) "same clause count"
              reference.Learn.stats.Learn.clauses
              resumed.Learn.stats.Learn.clauses;
            (* counters restore from the snapshot, so the resumed total
               matches the uninterrupted run exactly *)
            Alcotest.(check int) "candidate count restored + tail"
              reference.Learn.stats.Learn.candidates_evaluated
              resumed.Learn.stats.Learn.candidates_evaluated);
    Alcotest.test_case "a v3 snapshot naming a dropped counter still resumes"
      `Slow (fun () ->
        (* Snapshots written before the restarted backtracking test was
           deleted carry its restart counter (always 0) under this name.
           Such a file must still load, validate and resume bit-identically,
           and the unknown name must be ignored when counters are
           re-credited. *)
        let dropped = "subsumption_restarts" in
        let collected = ref [] in
        let sink ck =
          collected := ck :: !collected;
          `Written
        in
        let reference = run_uw ~checkpoint:sink ~seed:7 () in
        match List.rev !collected with
        | [] -> Alcotest.fail "no checkpoint emitted"
        | first :: _ ->
            let old =
              match first.Checkpoint.counters with
              | tries :: rest ->
                  { first with
                    Checkpoint.counters = tries :: (dropped, 0) :: rest }
              | [] -> Alcotest.fail "snapshot has no counters"
            in
            with_temp_file (fun path ->
                (match Checkpoint.save old path with
                | `Written -> ()
                | `Skipped -> Alcotest.fail "save skipped without chaos");
                match Checkpoint.load path with
                | Error e -> Alcotest.failf "load failed: %s" e
                | Ok got ->
                    Alcotest.(check bool) "validates" true
                      (Checkpoint.validate
                         ~fingerprint:first.Checkpoint.fingerprint got
                      = Ok ());
                    let resumed = run_uw ~resume:got ~seed:7 () in
                    Alcotest.(check string) "same definition"
                      (render reference.Learn.definition)
                      (render resumed.Learn.definition);
                    Alcotest.(check int) "same candidate count"
                      reference.Learn.stats.Learn.candidates_evaluated
                      resumed.Learn.stats.Learn.candidates_evaluated);
            let b = Budget.create () in
            Budget.add_assoc b [ ("subsumption_tries", 2); (dropped, 5) ];
            let assoc = Budget.counters_to_assoc (Budget.counters b) in
            Alcotest.(check bool) "unknown name dropped" false
              (List.mem_assoc dropped assoc);
            Alcotest.(check int) "known names credited" 2
              (List.assoc "subsumption_tries" assoc);
            Alcotest.(check int) "nothing else credited" 2
              (List.fold_left (fun acc (_, n) -> acc + n) 0 assoc));
  ]

(* ---------------- corrupted checkpoints ---------------- *)

let corruption_tests =
  [
    Alcotest.test_case
      "single-byte mutations of a saved checkpoint load as Error or intact"
      `Slow (fun () ->
        with_temp_file (fun path ->
            (* a real snapshot: the last boundary of a UW learn *)
            let last = ref None in
            let sink ck =
              last := Some ck;
              `Written
            in
            ignore (run_uw ~checkpoint:sink ~seed:11 ());
            (match !last with
            | Some ck -> ignore (Checkpoint.save ck path)
            | None -> Alcotest.fail "no checkpoint emitted");
            let raw = In_channel.with_open_bin path In_channel.input_all in
            let canonical ck = Json.to_string (Checkpoint.to_json ck) in
            let original =
              match Checkpoint.load path with
              | Ok ck when ck.Checkpoint.definition <> [] -> canonical ck
              | Ok _ -> Alcotest.fail "the snapshot holds no clause"
              | Error e -> Alcotest.failf "pristine checkpoint refused: %s" e
            in
            let rng = Random.State.make [| 2024 |] in
            let refused = ref 0 in
            for _ = 1 to 250 do
              let b = Bytes.of_string raw in
              let i = Random.State.int rng (Bytes.length b) in
              let c = Char.code (Bytes.get b i) in
              Bytes.set b i (Char.chr ((c + 1 + Random.State.int rng 255) land 255));
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_bytes oc b);
              match Checkpoint.load path with
              | Error _ -> incr refused
              | Ok ck ->
                  if canonical ck <> original then
                    Alcotest.failf "byte %d mutated to %C loaded as a different checkpoint"
                      i (Bytes.get b i)
            done;
            Alcotest.(check bool) "mutations are refused" true (!refused > 200)));
  ]

let suite =
  checkpoint_tests @ policy_tests @ chaos_tests @ csv_tests @ resume_tests
  @ corruption_tests
