(** The type graph (Algorithm 3): nodes are attributes, edges are unary INDs
    [v → u] for [v ⊆ u]. Types are seeded at nodes without outgoing edges
    and on cycles (one shared type per cycle), then propagated against edge
    direction to a fixpoint — except that a type crosses at most one
    approximate edge (error would accumulate along paths). *)

type edge = {
  src : Relational.Schema.attribute;  (** the included attribute *)
  dst : Relational.Schema.attribute;  (** the including attribute *)
  exact : bool;
  error : float;
}

val pp_edge : Format.formatter -> edge -> unit

type t

val nodes : t -> Relational.Schema.attribute list
val edges : t -> edge list

(** [types_of g attr] — the final type set of [attr] (empty if unknown). *)
val types_of : t -> Relational.Schema.attribute -> Bias.Util.String_set.t

(** [build ~attributes inds] runs Algorithm 3 over [attributes] with one
    edge per IND (reduce symmetric approximate pairs with
    {!Ind.keep_lower_of_symmetric} first). Type names are [T1, T2, …] in
    deterministic order. *)
val build : attributes:Relational.Schema.attribute list -> Ind.t list -> t

(** [to_dot g] renders Graphviz DOT in the style of the paper's Figure 1:
    solid edges for exact INDs, dashed for approximate. *)
val to_dot : t -> string

(** [pp] — text rendering: edges with their kind, then each attribute's
    types. *)
val pp : Format.formatter -> t -> unit
