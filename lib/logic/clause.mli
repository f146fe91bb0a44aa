(** Horn clauses and Horn definitions (Definitions 2.1–2.2 of the paper). *)

type t

val equal : t -> t -> bool
val make : Literal.t -> Literal.t list -> t
val head : t -> Literal.t

(** [body c] lists the body literals in construction order — the order the
    blocking-atom semantics of ARMG (Section 2.3.2) is defined over. *)
val body : t -> Literal.t list

(** [size c] is the number of body literals. *)
val size : t -> int

(** [vars c] is the set (as a unit hashtable) of variable ids in [c]. *)
val vars : t -> (int, unit) Hashtbl.t

(** [head_connected_body c] keeps only the body literals transitively
    connected to the head through shared variables (any chain, regardless of
    literal order). *)
val head_connected_body : t -> Literal.t list

(** [prune_head_connected c] is [c] with non-head-connected body literals
    dropped — what ARMG does after removing a blocking atom. *)
val prune_head_connected : t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [pp_multiline] prints the head on its own line and each body literal
    indented — readable for long bottom clauses. *)
val pp_multiline : Format.formatter -> t -> unit

type definition = t list
(** A Horn definition: clauses sharing a head relation. *)

val pp_definition : Format.formatter -> definition -> unit
val definition_to_string : definition -> string
