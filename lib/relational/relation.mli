(** In-memory relation instances with per-attribute hash indexes and the
    frequency statistics the Olken-style sampler needs (Section 4.2): the
    frequency m(a) of each value and an upper bound M on any frequency. *)

type tuple = Value.t array

val pp_tuple : Format.formatter -> tuple -> unit
val tuple_to_string : tuple -> string
val equal_tuple : tuple -> tuple -> bool

(** [hash_tuple t] — a stable structural hash consistent with
    {!equal_tuple}: independent of physical identity and insertion order,
    so it can seed per-example random streams. *)
val hash_tuple : tuple -> int

type t

(** [create schema] is an empty instance of [schema]. *)
val create : Schema.relation_schema -> t

val name : t -> string
val schema : t -> Schema.relation_schema
val arity : t -> int
val cardinality : t -> int

(** [tuples r] lists all tuples, newest first. *)
val tuples : t -> tuple list

(** [add r t] appends tuple [t]; indexes built earlier update incrementally.
    @raise Invalid_argument on arity mismatch. *)
val add : t -> tuple -> unit

val add_all : t -> tuple list -> unit

(** [of_tuples schema ts] builds a relation containing [ts]. *)
val of_tuples : Schema.relation_schema -> tuple list -> t

(** [lookup r pos v] is every tuple whose column [pos] equals [v] — an O(1)
    index probe plus output. The index on [pos] is built on first use. *)
val lookup : t -> int -> Value.t -> tuple list

(** [frequency r pos v] is m(v): tuples holding [v] in column [pos]. *)
val frequency : t -> int -> Value.t -> int

(** [max_frequency r pos] is M: an upper bound on any [frequency r pos _]. *)
val max_frequency : t -> int -> int

(** [distinct_count r pos] is the number of distinct values in column
    [pos]. *)
val distinct_count : t -> int -> int

(** [distinct_values r pos] lists them. *)
val distinct_values : t -> int -> Value.t list

(** [project r pos] is the duplicate-free projection π_pos as a value set. *)
val project : t -> int -> Value.Set.t

(** [select r pos values] is σ_(pos ∈ values)(r), served from the index. *)
val select : t -> int -> Value.Set.t -> tuple list

val fold : ('a -> tuple -> 'a) -> t -> 'a -> 'a
val iter : (tuple -> unit) -> t -> unit
val pp : Format.formatter -> t -> unit
