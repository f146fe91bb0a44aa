(** Automatic language-bias generation (Section 3): predicate definitions
    from the type graph, mode definitions from attribute cardinalities. *)

module Schema = Relational.Schema
module String_set = Bias.Util.String_set

(** Constant-threshold hyper-parameter (Section 3.2): an attribute may appear
    as a constant if its number of distinct values is below an absolute
    bound, or if its distinct-to-cardinality ratio is below a relative bound.
    The paper's experiments use [Relative 0.18]. *)
type threshold =
  | Absolute of int
  | Relative of float

(** [constant_positions ~threshold rel] is the column indexes of [rel] that
    qualify as constants under [threshold]. Empty relations yield none. *)
let constant_positions ~threshold rel =
  let card = Relational.Relation.cardinality rel in
  if card = 0 then []
  else
    List.init (Relational.Relation.arity rel) (fun i -> i)
    |> List.filter (fun i ->
           let distinct = Relational.Relation.distinct_count rel i in
           match threshold with
           | Absolute n -> distinct < n
           | Relative r -> float_of_int distinct /. float_of_int card < r)

(** [predicate_defs ~graph ~relation_schemas ~product_cap] produces, for each
    relation, one predicate definition per member of the Cartesian product of
    its attributes' type sets (Section 3.1). Attributes the type graph left
    untyped (no IND touches them — possible for constant-only columns) get a
    private fallback type so the relation still has definitions. The product
    is truncated at [product_cap] per relation (reported via [Logs.warn]). *)
let predicate_defs ?(product_cap = 64) ~graph relation_schemas =
  List.concat_map
    (fun (rs : Schema.relation_schema) ->
      let per_attr =
        List.mapi
          (fun pos name ->
            let tys = Type_graph.types_of graph (Schema.attr rs.Schema.rel_name name) in
            if String_set.is_empty tys then
              [ Printf.sprintf "T_%s_%d" rs.Schema.rel_name pos ]
            else String_set.elements tys)
          (Array.to_list rs.Schema.attrs)
      in
      (* Cartesian product, truncated at product_cap. *)
      let product =
        List.fold_left
          (fun acc tys ->
            List.concat_map (fun prefix -> List.map (fun t -> t :: prefix) tys) acc)
          [ [] ] per_attr
        |> List.map List.rev
      in
      let n = List.length product in
      let product =
        if n > product_cap then begin
          Logs.warn (fun m ->
              m "predicate_defs: %s has %d type combinations, capping at %d"
                rs.Schema.rel_name n product_cap);
          List.filteri (fun i _ -> i < product_cap) product
        end
        else product
      in
      List.map
        (fun tys -> Bias.Predicate_def.make rs.Schema.rel_name (Array.of_list tys))
        product)
    relation_schemas

(** [mode_defs ~threshold ~power_set_cap db] produces the mode definitions of
    Section 3.2: per relation, one mode per attribute with [+] there and [-]
    elsewhere, plus, for every non-empty subset of the constant-able
    attributes, the same modes with [#] on the subset. *)
let mode_defs ?(power_set_cap = 8) ~threshold db =
  List.concat_map
    (fun rel ->
      let consts = constant_positions ~threshold rel in
      Bias.Language.modes_for_relation ~power_set_cap
        (Relational.Relation.name rel)
        (Relational.Relation.arity rel)
        consts)
    (Relational.Database.relations db)

type result = {
  bias : Bias.Language.t;
  graph : Type_graph.t;
  inds : Ind.t list;  (** after symmetric-pair reduction *)
  ind_time : float;  (** seconds spent discovering INDs *)
}

(** [induce ?ind_config ?threshold ?power_set_cap ?product_cap db ~target
    ~positive_examples] is the full AutoBias pipeline of Section 3: discover
    exact and approximate INDs over [db] plus the positive-example relation,
    reduce symmetric approximate pairs, build the type graph, and generate
    predicate and mode definitions. The positive examples participate so the
    target's attributes are typed by the INDs from example columns into
    database attributes. *)
let induce ?(ind_config = Ind.default_config) ?(threshold = Relative 0.18)
    ?(power_set_cap = 8) ?(product_cap = 64) db
    ~(target : Schema.relation_schema) ~positive_examples =
  Obs.Trace.span ~cat:"discovery" "induce" @@ fun () ->
  let example_rel = Relational.Relation.of_tuples target positive_examples in
  let inds, ind_time =
    Obs.Trace.time (fun () ->
        Obs.Trace.span ~cat:"discovery" "ind_discovery" (fun () ->
            Ind.discover ~config:ind_config db ~extra:[ example_rel ]
            |> Ind.keep_lower_of_symmetric))
  in
  let schema = Relational.Database.schema db in
  let attributes = Schema.all_attributes (target :: schema) in
  let graph =
    Obs.Trace.span ~cat:"discovery" "type_graph" (fun () ->
        Type_graph.build ~attributes inds)
  in
  let predicate_defs =
    Obs.Trace.span ~cat:"discovery" "predicate_defs" (fun () ->
        predicate_defs ~product_cap ~graph (target :: schema))
  in
  let modes =
    Obs.Trace.span ~cat:"discovery" "mode_defs" (fun () ->
        mode_defs ~power_set_cap ~threshold db)
  in
  let bias = Bias.Language.make ~schema ~target ~predicate_defs ~modes in
  { bias; graph; inds; ind_time }
