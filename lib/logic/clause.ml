(** Horn clauses and Horn definitions (Definitions 2.1–2.2 of the paper). *)

type t = {
  head : Literal.t;
  body : Literal.t list;  (** in construction order *)
}
[@@deriving eq]

let make head body = { head; body }
let head c = c.head
let body c = c.body
let size c = List.length c.body

(** [vars c] is the set (as a hashtable) of variable ids appearing anywhere in
    [c]. *)
let vars c =
  let tbl = Hashtbl.create 32 in
  let add l = List.iter (fun i -> Hashtbl.replace tbl i ()) (Literal.vars l) in
  add c.head;
  List.iter add c.body;
  tbl

(** [head_connected_body c] keeps only the body literals transitively
    connected to the head through shared variables. Literals that lose their
    connection (e.g. after ARMG drops a blocking atom) carry no information
    about the example and are removed, as in Section 2.3.2. *)
let head_connected_body c =
  let connected = Hashtbl.create 32 in
  List.iter (fun i -> Hashtbl.replace connected i ()) (Literal.vars c.head);
  (* Fixpoint: a literal is kept once it shares a variable with the connected
     set; its variables then join the set. Repeated passes handle literals
     that appear before the literal that connects them. *)
  let remaining = ref c.body and kept = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    let still = ref [] in
    List.iter
      (fun l ->
        if Literal.shares_var l connected then begin
          List.iter (fun i -> Hashtbl.replace connected i ()) (Literal.vars l);
          kept := l :: !kept;
          changed := true
        end
        else still := l :: !still)
      !remaining;
    remaining := List.rev !still
  done;
  (* Restore construction order. *)
  let keep = Hashtbl.create 32 in
  List.iter (fun l -> Hashtbl.replace keep l ()) !kept;
  List.filter (fun l -> Hashtbl.mem keep l) c.body

(** [prune_head_connected c] is [c] with non-head-connected body literals
    dropped. *)
let prune_head_connected c = { c with body = head_connected_body c }

let to_string c =
  let body =
    match c.body with
    | [] -> "true"
    | ls -> String.concat ", " (List.map Literal.to_string ls)
  in
  Literal.to_string c.head ^ " :- " ^ body

let pp ppf c = Fmt.string ppf (to_string c)

(** [pp_multiline ppf c] prints the head on its own line and each body literal
    indented, which is how long bottom clauses stay readable. *)
let pp_multiline ppf c =
  Fmt.pf ppf "@[<v2>%a :-@,%a@]" Literal.pp c.head
    Fmt.(list ~sep:(any ",@,") Literal.pp)
    c.body

type definition = t list
(** A Horn definition: clauses sharing a head relation (Definition 2.2). *)

let pp_definition ppf (d : definition) =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) d

let definition_to_string d =
  String.concat "\n" (List.map to_string d)
