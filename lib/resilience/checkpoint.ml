(** Versioned learner checkpoints. See checkpoint.mli for the contract.

    A checkpoint captures the covering loop's state at a clause boundary:
    the definition so far, which original positives remain uncovered (as
    indices, so the snapshot is small and re-anchors against the caller's
    example list on resume), the skip counters, and the learner RNG — the
    one piece that makes resumption {e bit-identical}: every random draw
    the continuation will make is determined by it. The coverage verdict
    cache is not learner state and stays out: a resumed run recomputes
    it.

    Serialization is an {!Obs.Json} object. The [Random.State.t] and the
    learned clauses ride inside it as hex-encoded [Marshal] blobs (the
    clauses also appear as printed strings for humans and CI smoke checks;
    re-parsing a printed clause only guarantees alpha-equivalence, and
    resuming must restore the {e same} term structure). [Marshal] trusts
    its input, so two gates run before any blob is decoded: the [version]
    field, and a [digest] over the rendering of every other field. *)

module Json = Obs.Json

type t = {
  version : int;
  fingerprint : string;
  boundary : int;
  definition : Logic.Clause.definition;
  uncovered : int list;
  seeds_skipped : int;
  consecutive_skips : int;
  candidates_evaluated : int;
  rng : Random.State.t;
  counters : (string * int) list;
  elapsed_s : float;
}

(* v3: no failure-constraint store, and a payload [digest]. Older snapshots
   are refused by the version gate below, never reinterpreted. *)
let version = 3

let fingerprint_of_strings parts =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* {2 hex-encoded Marshal blobs} *)

let hex_digits = "0123456789abcdef"

let marshal_hex v =
  let s = Marshal.to_string v [] in
  String.init
    (2 * String.length s)
    (fun i ->
      let c = Char.code s.[i / 2] in
      hex_digits.[(if i land 1 = 0 then c lsr 4 else c) land 15])

let hex_decode s =
  if String.length s mod 2 <> 0 then failwith "odd-length hex string"
  else
    String.init
      (String.length s / 2)
      (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let unmarshal_hex s = Marshal.from_string (hex_decode s) 0

(* {2 JSON} *)

(* The digest covers the compact rendering of every field but itself. The
   renderer is canonical for what it parses back (floats print with 12
   significant digits, which survive a parse), so a loader re-renders the
   parsed fields and compares. *)
let digest_of fields =
  Digest.to_hex (Digest.string (Json.to_string (Json.Obj fields)))

let to_json t =
  let fields =
    [
      ("version", Json.Int t.version);
      ("fingerprint", Json.Str t.fingerprint);
      ("boundary", Json.Int t.boundary);
      (* human-readable view; restore uses the marshal blob below *)
      ( "definition",
        Json.List
          (List.map (fun c -> Json.Str (Logic.Clause.to_string c)) t.definition)
      );
      ("definition_bin", Json.Str (marshal_hex t.definition));
      ("uncovered", Json.List (List.map (fun i -> Json.Int i) t.uncovered));
      ("seeds_skipped", Json.Int t.seeds_skipped);
      ("consecutive_skips", Json.Int t.consecutive_skips);
      ("candidates_evaluated", Json.Int t.candidates_evaluated);
      ("rng", Json.Str (marshal_hex t.rng));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
      ("elapsed_s", Json.Float t.elapsed_s);
    ]
  in
  Json.Obj (fields @ [ ("digest", Json.Str (digest_of fields)) ])

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing field %S" name)

let int_field name j =
  match field name j with
  | Ok (Json.Int i) -> Ok i
  | Ok _ -> Error (Printf.sprintf "checkpoint: field %S is not an int" name)
  | Error _ as e -> e

let str_field name j =
  match field name j with
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "checkpoint: field %S is not a string" name)
  | Error _ as e -> e

let ( let* ) = Result.bind

let of_json j =
  let* v = int_field "version" j in
  if v <> version then
    Error
      (Printf.sprintf
         "checkpoint version mismatch: file has v%d, this binary reads v%d" v
         version)
  else
    let* digest = str_field "digest" j in
    let* () =
      match j with
      | Json.Obj fields
        when String.equal digest
               (digest_of (List.filter (fun (k, _) -> k <> "digest") fields))
        ->
          Ok ()
      | _ -> Error "checkpoint: payload digest mismatch (corrupted file)"
    in
    let* fingerprint = str_field "fingerprint" j in
    let* boundary = int_field "boundary" j in
    let* def_bin = str_field "definition_bin" j in
    let* uncovered =
      match field "uncovered" j with
      | Ok (Json.List l) ->
          List.fold_left
            (fun acc x ->
              match (acc, x) with
              | Ok is, Json.Int i -> Ok (i :: is)
              | Ok _, _ -> Error "checkpoint: non-int uncovered index"
              | (Error _ as e), _ -> e)
            (Ok []) l
          |> Result.map List.rev
      | Ok _ -> Error "checkpoint: field \"uncovered\" is not a list"
      | Error _ as e -> e
    in
    let* seeds_skipped = int_field "seeds_skipped" j in
    let* consecutive_skips = int_field "consecutive_skips" j in
    let* candidates_evaluated = int_field "candidates_evaluated" j in
    let* rng_hex = str_field "rng" j in
    let* counters =
      match field "counters" j with
      | Ok (Json.Obj kvs) ->
          List.fold_left
            (fun acc (k, x) ->
              match (acc, x) with
              | Ok l, Json.Int i -> Ok ((k, i) :: l)
              | Ok _, _ -> Error "checkpoint: non-int counter"
              | (Error _ as e), _ -> e)
            (Ok []) kvs
          |> Result.map List.rev
      | Ok _ -> Error "checkpoint: field \"counters\" is not an object"
      | Error _ as e -> e
    in
    let* elapsed_s =
      match field "elapsed_s" j with
      | Ok (Json.Float f) -> Ok f
      | Ok (Json.Int i) -> Ok (float_of_int i)
      | Ok _ -> Error "checkpoint: field \"elapsed_s\" is not a number"
      | Error _ as e -> e
    in
    match
      ( (unmarshal_hex def_bin : Logic.Clause.definition),
        (unmarshal_hex rng_hex : Random.State.t) )
    with
    | definition, rng ->
        Ok
          {
            version = v;
            fingerprint;
            boundary;
            definition;
            uncovered;
            seeds_skipped;
            consecutive_skips;
            candidates_evaluated;
            rng;
            counters;
            elapsed_s;
          }
    | exception e ->
        Error ("checkpoint: corrupt marshal payload: " ^ Printexc.to_string e)

let validate ~fingerprint t =
  if fingerprint = "" || t.fingerprint = "" || String.equal fingerprint t.fingerprint
  then Ok ()
  else
    Error
      (Printf.sprintf
         "checkpoint fingerprint mismatch: file was written by a run \
          configured as %s, this run is %s — refusing to resume"
         t.fingerprint fingerprint)

(* Atomic write (tmp + rename in the target directory), so a crash or an
   injected fault mid-write can never leave a torn checkpoint where a good
   one stood. The "checkpoint" chaos layer gates the whole write: an
   injected fault skips this snapshot — the learner counts it and keeps
   going; the previous checkpoint file survives untouched. *)
let save t path =
  if Chaos.fires "checkpoint" then `Skipped
  else
    match
      let tmp, oc =
        Filename.open_temp_file ~temp_dir:(Filename.dirname path) "checkpoint"
          ".tmp"
      in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Json.to_string (to_json t));
          output_char oc '\n';
          flush oc);
      Sys.rename tmp path
    with
    | () -> `Written
    | exception _ -> `Skipped

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    contents
  with
  | exception Sys_error msg -> Error ("checkpoint: cannot read: " ^ msg)
  | contents -> (
      match Json.parse contents with
      | Error msg -> Error ("checkpoint: not valid JSON: " ^ msg)
      | Ok j -> of_json j)
