(** Coverage testing via θ-subsumption against cached ground bottom clauses
    (Section 5): clause [C] covers example [e] iff, after binding [C]'s head
    to [e]'s constants, body(C) θ-subsumes the ground BC of [e]. Ground BCs
    are built once per example with the same sampling strategy used for
    bottom clauses and cached in the context.

    The context is safe to share across domains: the ground-BC cache sits
    behind a mutex whose critical sections are just the table operations,
    the verdict cache behind per-example-stripe locks, and ground
    BCs are built from a per-example [Random.State] derived from the master
    seed — so the cache contents are a pure function of (seed, example),
    independent of pool size, scheduling, and query order. *)

type t

(** Snapshot of the verdict cache: lifetime whole-key hits, lookups without
    a whole-key hit, and the number of entries stored. All zero when caching
    is disabled. *)
type cache_stats = { hits : int; misses : int; entries : int }

(** [?budget] is a sink for degradation counters (frontier truncations,
    cache hits/misses); it never changes any coverage verdict. [?use_cache]
    (default [true]) enables the verdict cache, one table striped by
    example. A [Covered] verdict is stored at the clause's full canonical
    key; a [Blocked i] verdict at the key's prefix through literal [i],
    where it answers every clause that starts with those literals (the
    evaluator never looks past the literal it dies at). Verdicts are pure
    functions of (clause, example) given the captured seed, so caching is
    invisible to results — [false] ([--no-coverage-cache]) exists for A/B
    measurement. Every verdict is computed by the int-coded compiled kernel
    ({!Logic.Compiled}), which is bit-identical to the symbolic frontier
    engine ({!Logic.Subsumption.eval_prefix}, kept as the test oracle).
    [?pool] is stored for the callers that score a whole definition on the
    context ({!pool}); no verdict depends on it. *)
val create :
  ?bc_config:Bottom_clause.config ->
  ?budget:Budget.t ->
  ?use_cache:bool ->
  ?pool:Parallel.Pool.t ->
  Relational.Database.t ->
  Bias.Language.t ->
  rng:Random.State.t ->
  t

(** The verdict cache seen as a store of blocked prefixes: [probes] are
    lookups without a whole-key hit, [hits] the probes a blocked prefix
    answered, [constraints] the blocked entries stored. All zero when
    caching is disabled. *)
type prune_stats = { probes : int; hits : int; constraints : int }

val prune_stats : t -> prune_stats

(** [cache_stats t] — a consistent-enough snapshot of the verdict cache. *)
val cache_stats : t -> cache_stats

(** [memo_hash key example] — the verdict cache's hash of a (canonical
    clause key, example) pair. It reads every int of [key] and the whole
    example. *)
val memo_hash : int array -> Relational.Relation.tuple -> int

(** [with_budget t budget] is [t] reporting into [budget]: a shallow copy
    sharing the ground-BC cache (and its mutex) — concurrent learns each
    get their own counters without duplicating cached work. *)
val with_budget : t -> Budget.t -> t

val bias : t -> Bias.Language.t
val database : t -> Relational.Database.t

(** [pool t] — the domain pool given to {!create}, shared by {!with_budget}
    copies. [Evaluation.Metrics.evaluate] counts over it. *)
val pool : t -> Parallel.Pool.t option

(** [ground_of t example] — the cached ground bottom clause of [example] as
    a symbolic index, the form {!Armg.generalize} sweeps. The index is
    built from the cached body on the first call for [example] (in a
    [ground_bc] trace span with [index=symbolic]) and returned physically
    equal on every later call, from any domain. *)
val ground_of : t -> Relational.Relation.tuple -> Logic.Subsumption.ground

(** [warm ?pool t examples] precomputes ground BCs (the paper builds them
    once, up front), fanning construction across [pool] when given — the
    resulting cache is identical either way. Only the compiled form that
    coverage verdicts read is built; the symbolic index waits for
    {!ground_of}. *)
val warm : ?pool:Parallel.Pool.t -> t -> Relational.Relation.tuple list -> unit

(** [head_subst clause example] binds the clause head to the example:
    variables map to constants, constant head arguments must match; [None]
    when the head cannot produce the example. *)
val head_subst :
  Logic.Clause.t -> Relational.Relation.tuple -> Logic.Substitution.t option

(** Who answered a verdict: the verdict cache at the clause's whole key,
    the cache at a blocked prefix of it, or a real evaluation (the only
    case that counts a [Subsumption_try]). A repeat of a clause blocked
    before its last literal is answered by its stored prefix, so it is
    [Store], not [Memo]. *)
type source = Memo | Store | Computed

(** [eval_src t clause example] — [Covered w] with a witness, or
    [Blocked i] with the 1-based blocking body literal ([Blocked 0]: the
    head itself cannot bind), together with its {!source}. The verdict is
    identical whichever source served it; the tag feeds {!Learn}'s
    search-funnel accounting. *)
val eval_src :
  t -> Logic.Clause.t -> Relational.Relation.tuple ->
  Logic.Subsumption.verdict * source

(** [eval t clause example] — the verdict of {!eval_src}. *)
val eval :
  t -> Logic.Clause.t -> Relational.Relation.tuple -> Logic.Subsumption.verdict

val covers : t -> Logic.Clause.t -> Relational.Relation.tuple -> bool

(** [count_many ?pool t clause examples] — how many of [examples] [clause]
    covers, per-example tests fanned out across [pool] when given. Equal for
    every pool size, [None] included. *)
val count_many :
  ?pool:Parallel.Pool.t ->
  t ->
  Logic.Clause.t ->
  Relational.Relation.tuple list ->
  int

(** [definition_covers t def example] — disjunction over clauses
    (Definition 2.4). *)
val definition_covers :
  t -> Logic.Clause.definition -> Relational.Relation.tuple -> bool
