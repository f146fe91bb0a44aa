(** The type graph (Algorithm 3 of the paper).

    Nodes are attributes of the schema (including the target relation's);
    there is an edge [v → u] for every unary IND [v ⊆ u]. Types are seeded at
    nodes without outgoing edges and on cycles (every node of a cycle shares
    one type), then propagated against edge direction — the included
    attribute inherits the including attribute's types — until fixpoint.
    Because approximate-IND error accumulates along paths, a type crosses at
    most one approximate edge: types that arrived over an approximate edge
    are marked and never propagate across another one. *)

module Schema = Relational.Schema
module Attr_map = Schema.Attr_map
module String_set = Bias.Util.String_set

type edge = {
  src : Schema.attribute;  (** the included attribute, R[A] *)
  dst : Schema.attribute;  (** the including attribute, S[B] *)
  exact : bool;
  error : float;
}
[@@deriving show { with_path = false }]

type t = {
  nodes : Schema.attribute list;  (** sorted, deterministic *)
  edges : edge list;
  types : String_set.t Attr_map.t;  (** final type assignment *)
}

let nodes g = g.nodes
let edges g = g.edges

(** [types_of g attr] is the type set assigned to [attr] (empty for unknown
    attributes). *)
let types_of g attr =
  match Attr_map.find_opt attr g.types with
  | Some s -> s
  | None -> String_set.empty

(* Tarjan SCC over the edge list; returns the list of components, each a list
   of attributes. *)
let sccs nodes edges =
  let index = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace index n i) nodes;
  let n = List.length nodes in
  let node_arr = Array.of_list nodes in
  let adj = Array.make n [] in
  List.iter
    (fun e ->
      match (Hashtbl.find_opt index e.src, Hashtbl.find_opt index e.dst) with
      | Some i, Some j -> adj.(i) <- j :: adj.(i)
      | _ -> ())
    edges;
  let idx = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    idx.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if idx.(w) = -1 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) idx.(w))
      adj.(v);
    if low.(v) = idx.(v) then begin
      let comp = ref [] in
      let rec pop () =
        match !stack with
        | [] -> assert false
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp := node_arr.(w) :: !comp;
            if w <> v then pop ()
      in
      pop ();
      out := !comp :: !out
    end
  in
  for v = 0 to n - 1 do
    if idx.(v) = -1 then strongconnect v
  done;
  !out

(** [build ~attributes inds] runs Algorithm 3: creates the graph over
    [attributes] with one edge per IND in [inds] (symmetric approximate pairs
    should already be reduced with {!Ind.keep_lower_of_symmetric}), seeds and
    propagates types. Type names are [T1, T2, ...] in deterministic order. *)
let build ~attributes inds =
  let nodes =
    List.sort_uniq Schema.compare_attribute attributes
  in
  (* Deduplicate parallel edges, keeping the lowest error. *)
  let edge_tbl = Hashtbl.create 64 in
  List.iter
    (fun (ind : Ind.t) ->
      let key = (ind.Ind.sub, ind.Ind.sup) in
      match Hashtbl.find_opt edge_tbl key with
      | Some e when e.error <= ind.Ind.error -> ()
      | _ ->
          Hashtbl.replace edge_tbl key
            {
              src = ind.Ind.sub;
              dst = ind.Ind.sup;
              exact = Ind.is_exact ind;
              error = ind.Ind.error;
            })
    inds;
  let edges =
    Hashtbl.fold (fun _ e acc -> e :: acc) edge_tbl []
    |> List.sort (fun a b ->
           compare
             (Schema.attribute_to_string a.src, Schema.attribute_to_string a.dst)
             (Schema.attribute_to_string b.src, Schema.attribute_to_string b.dst))
  in
  (* Seed types. [seeded] maps attribute -> type list with approx-crossing
     flag; the flag is false for seeds. *)
  let counter = ref 0 in
  let fresh () =
    incr counter;
    "T" ^ string_of_int !counter
  in
  let has_outgoing = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace has_outgoing e.src ()) edges;
  (* state: attribute -> type name -> crossed_approx flag (false dominates) *)
  let state : (Schema.attribute, (string, bool) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let tbl_of attr =
    match Hashtbl.find_opt state attr with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace state attr t;
        t
  in
  let add attr ty crossed =
    let t = tbl_of attr in
    match Hashtbl.find_opt t ty with
    | None ->
        Hashtbl.replace t ty crossed;
        true
    | Some old when old && not crossed ->
        Hashtbl.replace t ty false;
        true
    | Some _ -> false
  in
  (* 1. Nodes without outgoing edges get a fresh type. *)
  List.iter
    (fun n ->
      if not (Hashtbl.mem has_outgoing n) then ignore (add n (fresh ()) false))
    nodes;
  (* 2. Every cycle (non-singleton SCC) shares one fresh type. *)
  List.iter
    (fun comp ->
      match comp with
      | [] | [ _ ] -> ()
      | _ ->
          let ty = fresh () in
          List.iter (fun n -> ignore (add n ty false)) comp)
    (sccs nodes edges);
  (* 3. Propagate to fixpoint: over v → u, v inherits u's types. A type that
     already crossed an approximate edge does not cross another one. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun e ->
        match Hashtbl.find_opt state e.dst with
        | None -> ()
        | Some dst_types ->
            Hashtbl.iter
              (fun ty crossed ->
                let propagate, new_flag =
                  if e.exact then (true, crossed)
                  else ((not crossed), true)
                in
                if propagate && add e.src ty new_flag then changed := true)
              dst_types)
      edges
  done;
  let types =
    List.fold_left
      (fun acc n ->
        let set =
          match Hashtbl.find_opt state n with
          | None -> String_set.empty
          | Some t -> Hashtbl.fold (fun ty _ acc -> String_set.add ty acc) t String_set.empty
        in
        Attr_map.add n set acc)
      Attr_map.empty nodes
  in
  { nodes; edges; types }

(** [to_dot g] renders the graph in Graphviz DOT: solid edges for exact INDs,
    dashed for approximate ones (the style of Figure 1), node labels carrying
    the assigned types. *)
let to_dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph type_graph {\n  rankdir=BT;\n";
  List.iter
    (fun n ->
      let types =
        String_set.elements (types_of g n) |> String.concat ","
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\\n{%s}\"];\n"
           (Schema.attribute_to_string n)
           (Schema.attribute_to_string n)
           types))
    g.nodes;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [style=%s%s];\n"
           (Schema.attribute_to_string e.src)
           (Schema.attribute_to_string e.dst)
           (if e.exact then "solid" else "dashed")
           (if e.exact then ""
            else Printf.sprintf ",label=\"%.2f\"" e.error)))
    g.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** [pp ppf g] prints a text rendering: each edge with its kind, then each
    attribute with its types. *)
let pp ppf g =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun e ->
      Fmt.pf ppf "%s %s %s%s@,"
        (Schema.attribute_to_string e.src)
        (if e.exact then "──▶" else "┄┄▶")
        (Schema.attribute_to_string e.dst)
        (if e.exact then "" else Printf.sprintf "  (α=%.2f)" e.error))
    g.edges;
  List.iter
    (fun n ->
      Fmt.pf ppf "types(%s) = {%s}@,"
        (Schema.attribute_to_string n)
        (String.concat ", " (String_set.elements (types_of g n))))
    g.nodes;
  Fmt.pf ppf "@]"
