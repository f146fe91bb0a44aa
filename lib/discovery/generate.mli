(** Automatic language-bias generation (Section 3): predicate definitions
    from the type graph, mode definitions from attribute cardinalities. *)

(** The constant-threshold hyper-parameter (Section 3.2). An attribute may
    appear as a constant when its distinct-value count is below [Absolute n]
    or its distinct-to-cardinality ratio is below [Relative r]. The paper's
    experiments use [Relative 0.18]. *)
type threshold =
  | Absolute of int
  | Relative of float

(** [constant_positions ~threshold rel] — the column indexes of [rel] that
    qualify as constants. *)
val constant_positions : threshold:threshold -> Relational.Relation.t -> int list

(** [predicate_defs ?product_cap ~graph schemas] — per relation, one
    predicate definition per member of the Cartesian product of its
    attributes' type sets (truncated at [product_cap] with a warning).
    Untyped attributes get a private fallback type. *)
val predicate_defs :
  ?product_cap:int ->
  graph:Type_graph.t ->
  Relational.Schema.relation_schema list ->
  Bias.Predicate_def.t list

(** [mode_defs ?power_set_cap ~threshold db] — the Section 3.2 modes: one
    [+]-rotation per relation plus [#]-modes for every non-empty subset of
    the constant-able attributes. *)
val mode_defs :
  ?power_set_cap:int -> threshold:threshold -> Relational.Database.t -> Bias.Mode.t list

type result = {
  bias : Bias.Language.t;
  graph : Type_graph.t;
  inds : Ind.t list;  (** after symmetric-pair reduction *)
  ind_time : float;  (** seconds spent discovering INDs *)
}

(** [induce ?ind_config ?threshold ?power_set_cap ?product_cap db ~target
    ~positive_examples] — the full AutoBias pipeline of Section 3: discover
    exact and approximate INDs over [db] plus the positive-example relation
    (so the target's attributes get typed), reduce symmetric pairs, build
    the type graph, generate predicate and mode definitions. *)
val induce :
  ?ind_config:Ind.config ->
  ?threshold:threshold ->
  ?power_set_cap:int ->
  ?product_cap:int ->
  Relational.Database.t ->
  target:Relational.Schema.relation_schema ->
  positive_examples:Relational.Relation.tuple list ->
  result
