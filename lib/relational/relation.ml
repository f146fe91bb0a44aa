(** In-memory relation instances.

    A relation stores its tuples as value arrays and lazily builds, per
    attribute, a hash index from value to the list of tuples holding that
    value, together with the frequency statistics the Olken-style sampler
    needs (Section 4.2 of the paper): the frequency m(a) of each value and an
    upper bound M on any frequency. *)

type tuple = Value.t array

let pp_tuple ppf (t : tuple) =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp_short) t

let tuple_to_string t = Fmt.str "%a" pp_tuple t
let equal_tuple (a : tuple) b = a = b

let hash_tuple (t : tuple) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

type index = {
  by_value : (int * tuple list) Value.Table.t;
      (** value -> (bucket length, tuples with that value): the length rides
          along so insertion and frequency probes stay O(1) — recomputing
          [List.length bucket] per inserted tuple made index maintenance
          quadratic in the bucket size *)
  mutable max_frequency : int;  (** M: max tuples sharing one value *)
  mutable distinct : int;  (** number of distinct values in the column *)
}

(* Shared insert: bucket lengths are maintained, never recomputed. *)
let index_add idx pos (t : tuple) =
  let v = t.(pos) in
  let n, bucket =
    try Value.Table.find idx.by_value v with Not_found -> (0, [])
  in
  if n = 0 then idx.distinct <- idx.distinct + 1;
  let n = n + 1 in
  Value.Table.replace idx.by_value v (n, t :: bucket);
  if n > idx.max_frequency then idx.max_frequency <- n

type t = {
  schema : Schema.relation_schema;
  mutable tuples : tuple list;  (** newest first *)
  mutable cardinality : int;
  indexes : (int, index) Hashtbl.t;  (** column position -> index *)
}

let create schema = { schema; tuples = []; cardinality = 0; indexes = Hashtbl.create 4 }

let name r = r.schema.Schema.rel_name
let schema r = r.schema
let arity r = Schema.arity r.schema
let cardinality r = r.cardinality
let tuples r = r.tuples

(** [add r t] appends tuple [t]. Raises [Invalid_argument] on arity mismatch.
    Indexes built earlier are updated incrementally. *)
let add r (t : tuple) =
  if Array.length t <> arity r then
    invalid_arg
      (Printf.sprintf "Relation.add: arity mismatch on %s (got %d, want %d)"
         (name r) (Array.length t) (arity r));
  r.tuples <- t :: r.tuples;
  r.cardinality <- r.cardinality + 1;
  Hashtbl.iter (fun pos idx -> index_add idx pos t) r.indexes

let add_all r ts = List.iter (add r) ts

(** [of_tuples schema ts] builds a relation containing [ts]. *)
let of_tuples schema ts =
  let r = create schema in
  add_all r ts;
  r

let build_index r pos =
  let idx =
    { by_value = Value.Table.create (max 16 r.cardinality); max_frequency = 0; distinct = 0 }
  in
  List.iter (fun t -> index_add idx pos t) r.tuples;
  Hashtbl.replace r.indexes pos idx;
  idx

(** [index r pos] returns (building on first use) the index on column [pos]. *)
let index r pos =
  match Hashtbl.find_opt r.indexes pos with
  | Some idx -> idx
  | None -> build_index r pos

(** [lookup r pos v] is every tuple whose column [pos] equals [v], via the
    index: O(1) probe, as a main-memory DBMS with proper indexes would do. *)
let lookup r pos v =
  try snd (Value.Table.find (index r pos).by_value v) with Not_found -> []

(** [frequency r pos v] is m(v): how many tuples hold [v] in column [pos] —
    an O(1) probe of the cached bucket length. *)
let frequency r pos v =
  try fst (Value.Table.find (index r pos).by_value v) with Not_found -> 0

(** [max_frequency r pos] is M: an upper bound on [frequency r pos v]. *)
let max_frequency r pos = (index r pos).max_frequency

(** [distinct_count r pos] is the number of distinct values in column [pos]. *)
let distinct_count r pos = (index r pos).distinct

(** [distinct_values r pos] lists the distinct values of column [pos]. *)
let distinct_values r pos =
  Value.Table.fold (fun v _ acc -> v :: acc) (index r pos).by_value []

(** [project r pos] is the multiset-free projection π_pos as a value set. *)
let project r pos =
  Value.Table.fold (fun v _ acc -> Value.Set.add v acc) (index r pos).by_value
    Value.Set.empty

(** [select r pos values] is σ_{pos ∈ values}(r), served from the index. *)
let select r pos values =
  Value.Set.fold (fun v acc -> List.rev_append (lookup r pos v) acc) values []

(** [fold f r init] folds over all tuples. *)
let fold f r init = List.fold_left (fun acc t -> f acc t) init r.tuples

let iter f r = List.iter f r.tuples

let pp ppf r =
  Fmt.pf ppf "@[<v2>%s(%a) [%d tuples]@,%a@]" (name r)
    Fmt.(array ~sep:(any ",") string)
    r.schema.Schema.attrs r.cardinality
    Fmt.(list ~sep:cut pp_tuple)
    r.tuples
