(** Database values.

    A value is the content of one attribute of one tuple. We support integers
    and strings; every dataset in the paper (UW, HIV, IMDb, FLT, SYS) stores
    identifiers and small categorical values, which these two constructors
    cover. Values are totally ordered and hashable so they can key indexes. *)

type t =
  | Int of int
  | Str of string
[@@deriving eq, ord, show { with_path = false }]

let int i = Int i
let str s = Str s

let hash = function
  | Int i -> Hashtbl.hash (0, i)
  | Str s -> Hashtbl.hash (1, s)

(** [to_string v] renders the payload without constructor noise; used by
    pretty-printers and CSV output. *)
let to_string = function
  | Int i -> string_of_int i
  | Str s -> s

(** [of_string s] is [Int i] exactly when [s] is the canonical decimal
    rendering of [i] ([string_of_int i = s]), else [Str s]. [int_of_string]
    alone also accepts "0x10", "1_000", "+5" and "007", which would merge
    distinct strings into one integer. CSV loading uses this. *)
let of_string s =
  match int_of_string_opt s with
  | Some i when string_of_int i = s -> Int i
  | _ -> Str s

let pp_short ppf v = Fmt.string ppf (to_string v)

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Table = Hashtbl.Make (Key)
module Set = Set.Make (Key)
module Map = Map.Make (Key)
