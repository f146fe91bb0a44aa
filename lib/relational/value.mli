(** Database values.

    A value is the content of one attribute of one tuple. Integers and
    strings cover every dataset shape in the paper (identifiers and small
    categorical values). Values are totally ordered and hashable so they can
    key indexes; note that [Int 1] and [Str "1"] are distinct values. *)

type t =
  | Int of int
  | Str of string

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val show : t -> string

(** [int i] / [str s] — constructors. *)
val int : int -> t

val str : string -> t

(** [hash v] is consistent with {!equal}. *)
val hash : t -> int

(** [to_string v] renders the payload without constructor noise. *)
val to_string : t -> string

(** [of_string s] is [Int i] when [s] is exactly [string_of_int i], else
    [Str s]: other integer spellings ("0x10", "1_000", "+5", "007") stay
    strings, so distinct strings never merge. CSV loading and the clause
    parser use it. *)
val of_string : string -> t

(** [pp_short] prints like {!to_string}. *)
val pp_short : Format.formatter -> t -> unit

(** Hashtbl/Set/Map instances keyed by values. *)
module Key : Hashtbl.HashedType with type t = t

module Table : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
