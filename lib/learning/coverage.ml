(** Coverage testing via θ-subsumption against ground bottom clauses
    (Section 5).

    A clause [C] covers example [e] iff, after binding [C]'s head variables
    to [e]'s constants, the body of [C] θ-subsumes the ground bottom clause
    of [e]. Ground BCs are built once per example — with the same sampling
    strategy used for bottom clauses, as the paper prescribes — and cached
    here for the many coverage tests generalization performs.

    The context is shared across domains by the parallel learner, so the
    cache is read-mostly behind a mutex: lookups and inserts hold the lock
    only for the table operation itself, while the expensive RNG-driven BC
    construction runs outside it (a racing duplicate build keeps the first
    inserted result). Construction draws from a {e per-example}
    [Random.State] derived from the master seed captured at {!create}, so a
    ground BC is a pure function of (master seed, example) — identical no
    matter which domain builds it, in what order, or whether a pool is used
    at all. That per-example derivation is what makes the learner's
    sequential and 1-domain-pool runs produce identical definitions. *)

module Value = Relational.Value

(* Observability handles, registered once at module init. The histogram
   tracks real (uncached) subsumption evaluations; memo traffic and
   inheritance stay in the Budget counters — the single source of truth for
   degradation accounting — and show up as span args here. *)
let m_eval = Obs.Metrics.histogram "coverage.eval_s"
let m_tests = Obs.Metrics.counter "coverage.tests"
let m_ground_bcs = Obs.Metrics.counter "coverage.ground_bcs_built"

(* {2 The coverage memo}

   Coverage verdicts are pure: [eval] is a function of (clause, ground BC)
   and the ground BC of an example is a pure function of (master seed,
   example). The memo therefore caches verdicts keyed by (clause key,
   example) — the clause key is the compiled plan's canonical int-id array,
   injective exactly where the printed clause is (ARMG and reduction never
   rename variables), with no printing per test — and a cached verdict is
   bit-identical to a recomputed one, so enabling the cache cannot change
   any learned definition.

   The table is {e lock-striped}: the domain pool hammers it from every
   worker during beam evaluation, and a single mutex would serialize the
   hot path the pool exists to parallelize. A stripe is picked by key hash;
   locks are held only for the table probe / insert. Misses compute the
   verdict outside any lock (racing duplicates insert the same value).
   Stripes are capped so a long run cannot grow the table without bound:
   once a stripe is full, new verdicts are simply not remembered — which is
   deterministic, verdicts being pure. Like the failure-constraint store,
   the memo is never checkpointed: a resumed run recomputes what it needs. *)

let memo_stripes = 16
let memo_stripe_cap = 1 lsl 14  (** per stripe; ~256k entries in total *)

(* The memo hash reads the whole clause key and the example. [Hashtbl.hash]
   on the pair would stop after 10 ints, all from the clause key (real keys
   are longer), and put every verdict of one clause in one bucket chain. *)
let memo_hash key example =
  Hashtbl.hash
    (Array.fold_left
       (fun acc x -> (acc * 31) + x)
       (Relational.Relation.hash_tuple example)
       key)

(* Memo keys carry their hash, computed once per lookup. [Hashtbl] picks
   buckets from the low bits of it; the stripe takes the top 4 of its 30
   bits, so each stripe's table spreads over all its buckets. *)
type memo_key = {
  hash : int;
  clause_key : int array;
  example : Relational.Relation.tuple;
}

let memo_key clause_key example =
  { hash = memo_hash clause_key example; clause_key; example }

let memo_stripe k = (k.hash lsr 26) land (memo_stripes - 1)

module Memo_tbl = Hashtbl.Make (struct
  type t = memo_key

  let equal a b =
    a.hash = b.hash
    && a.clause_key = b.clause_key
    && Relational.Relation.equal_tuple a.example b.example

  let hash k = k.hash
end)

type memo = {
  tables : Logic.Subsumption.verdict Memo_tbl.t array;
  locks : Mutex.t array;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

type cache_stats = { hits : int; misses : int; entries : int }

(* A cached ground BC. The compiled form drives every coverage verdict and
   is built with the entry, outside the cache lock. The symbolic hash index
   is only read by ARMG's frontier sweep (through [ground_of]), which visits
   a few sampled positives per beam step, so it is built from [body] on the
   first [ground_of] call and published with a compare-and-set — a [Lazy.t]
   forced from two domains at once raises. *)
type ground_entry = {
  comp : Logic.Compiled.ground;
  body : Logic.Literal.t list;
  sym : Logic.Subsumption.ground option Atomic.t;
}

type t = {
  db : Relational.Database.t;
  bias : Bias.Language.t;
  bc_config : Bottom_clause.config;
  seed_base : int;  (** master seed for per-example ground-BC RNGs *)
  grounds : (Relational.Relation.tuple, ground_entry) Hashtbl.t;
  lock : Mutex.t;  (** guards [grounds] *)
  memo : memo option;  (** [None] = caching disabled ([--no-coverage-cache]) *)
  pool : Parallel.Pool.t option;
      (** the pool callers that score definitions on this context fan out
          over; coverage itself never reads it *)
  compiled : Eval_plan.t;
  prune : Prune.t option;
      (** failure-constraint store ([None] = [--no-prune]); a probe hit
          returns the exact verdict evaluation would compute, so pruning
          never changes results either *)
  budget : Budget.t option;
      (** sink for degradation counters (frontier truncations, memo
          hits/misses); never changes any coverage verdict *)
}

let create ?(bc_config = Bottom_clause.default_config) ?budget
    ?(use_cache = true) ?(use_pruning = true) ?pool db bias ~rng =
  {
    db;
    bias;
    bc_config;
    seed_base = Random.State.bits rng;
    grounds = Hashtbl.create 256;
    lock = Mutex.create ();
    memo =
      (if use_cache then
         Some
           {
             tables = Array.init memo_stripes (fun _ -> Memo_tbl.create 512);
             locks = Array.init memo_stripes (fun _ -> Mutex.create ());
             hits = Atomic.make 0;
             misses = Atomic.make 0;
           }
       else None);
    pool;
    compiled = Eval_plan.create ();
    prune = (if use_pruning then Some (Prune.create ()) else None);
    budget;
  }

let pruning_enabled t = t.prune <> None

type prune_stats = Prune.stats = { probes : int; hits : int; constraints : int }

let prune_stats t =
  match t.prune with
  | None -> { probes = 0; hits = 0; constraints = 0 }
  | Some ps -> Prune.stats ps

let cache_stats t =
  match t.memo with
  | None -> { hits = 0; misses = 0; entries = 0 }
  | Some m ->
      let entries = ref 0 in
      Array.iteri
        (fun i tbl ->
          Mutex.lock m.locks.(i);
          entries := !entries + Memo_tbl.length tbl;
          Mutex.unlock m.locks.(i))
        m.tables;
      {
        hits = Atomic.get m.hits;
        misses = Atomic.get m.misses;
        entries = !entries;
      }

(** [with_budget t budget] is [t] reporting into [budget]: a shallow copy
    sharing the ground-BC cache (and its mutex), so concurrent learns — CV
    folds on one scoring context — each get their own counters without
    duplicating cached work. *)
let with_budget t budget = { t with budget = Some budget }

let bias t = t.bias
let database t = t.db
let pool t = t.pool

(* The per-example RNG must not depend on physical identity or insertion
   order, hence the structural tuple hash. *)
let example_rng t example =
  Random.State.make [| t.seed_base; Relational.Relation.hash_tuple example |]

let ground_entry_of t example =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.grounds example with
  | Some g ->
      Mutex.unlock t.lock;
      g
  | None ->
      Mutex.unlock t.lock;
      let g =
        Obs.Trace.span ~cat:"coverage" "ground_bc" (fun () ->
            Obs.Metrics.bump m_ground_bcs;
            let clause =
              Bottom_clause.build_ground ~config:t.bc_config t.db t.bias
                ~rng:(example_rng t example) ~example
            in
            let body = Logic.Clause.body clause in
            {
              comp =
                Logic.Compiled.compile_ground (Eval_plan.symtab t.compiled)
                  ~example body;
              body;
              sym = Atomic.make None;
            })
      in
      Mutex.lock t.lock;
      let g =
        match Hashtbl.find_opt t.grounds example with
        | Some g' -> g' (* lost a build race; keep the first insert *)
        | None ->
            Hashtbl.replace t.grounds example g;
            g
      in
      Mutex.unlock t.lock;
      g

(** [ground_of t example] is the cached ground bottom clause of [example] as
    a symbolic index, built on first use. Racing builders each index the
    same body; the first compare-and-set wins and every caller returns that
    one value. The build is ground-BC work, so it runs in a [ground_bc] span
    (tagged [index=symbolic]), but it builds no new ground BC and so leaves
    [coverage.ground_bcs_built] alone. *)
let ground_of t example =
  let g = ground_entry_of t example in
  match Atomic.get g.sym with
  | Some s -> s
  | None ->
      let s =
        Obs.Trace.span ~cat:"coverage" ~args:[ ("index", "symbolic") ]
          "ground_bc" (fun () -> Logic.Subsumption.ground_of_literals g.body)
      in
      if Atomic.compare_and_set g.sym None (Some s) then s
      else Option.get (Atomic.get g.sym)

(* Batch entry points run inside a span carrying the batch size and the memo
   traffic the batch generated (hit/miss deltas read from the memo's own
   atomics). Checking [enabled] first keeps the disabled path at one atomic
   load before the real work. *)
let traced_batch t name ~examples f =
  if not (Obs.Trace.enabled ()) then f ()
  else
    Obs.Trace.span ~cat:"coverage"
      ~args:[ ("examples", string_of_int examples) ]
      name
      (fun () ->
        match t.memo with
        | None -> f ()
        | Some m ->
            let h0 = Atomic.get m.hits and m0 = Atomic.get m.misses in
            let r = f () in
            Obs.Trace.arg "memo_hits" (string_of_int (Atomic.get m.hits - h0));
            Obs.Trace.arg "memo_misses"
              (string_of_int (Atomic.get m.misses - m0));
            r)

(** [warm ?pool t examples] precomputes the compiled ground BCs of
    [examples] (the paper builds them once, up front), fanning construction
    out across [pool] when given. Per-example RNG derivation makes the
    result independent of the pool size and of scheduling. The symbolic
    index is left to {!ground_of}. *)
let warm ?pool t examples =
  traced_batch t "warm" ~examples:(List.length examples) (fun () ->
      Parallel.Par.parallel_iter ?pool
        (fun e -> ignore (ground_entry_of t e))
        examples)

(** [head_subst clause example] binds the head of [clause] to [example]:
    variables map to the example's constants; constant head arguments must
    match. [None] when the head cannot produce the example. *)
let head_subst clause (example : Relational.Relation.tuple) =
  let head = Logic.Clause.head clause in
  let args = Logic.Literal.args head in
  if Array.length args <> Array.length example then None
  else begin
    let rec go i subst =
      if i >= Array.length args then Some subst
      else
        match args.(i) with
        | Logic.Term.Const c ->
            if Value.equal c example.(i) then go (i + 1) subst else None
        | Logic.Term.Var v -> (
            match Logic.Substitution.extend subst v example.(i) with
            | Some subst -> go (i + 1) subst
            | None -> None)
    in
    go 0 Logic.Substitution.empty
  end

(* One real frontier evaluation. Counts as a subsumption try so the Budget
   counters expose exactly how many tests the memo and ARMG inheritance
   avoided. *)
let eval_uncached t clause example =
  Budget.hit_opt t.budget Budget.Subsumption_try;
  Obs.Metrics.bump m_tests;
  Obs.Metrics.time m_eval (fun () ->
      (* The head check runs first: it is tiny, and keeping it ahead of
         [ground_entry_of] means a head-blocked example never triggers a
         ground-BC build. *)
      match head_subst clause example with
      | None -> Logic.Subsumption.Blocked 0
      | Some _ ->
          Eval_plan.eval ?budget:t.budget t.compiled clause
            (ground_entry_of t example).comp)

type source = Memo | Store | Computed

(* One verdict, cheapest honest route: probe the failure-constraint store
   first (a trie walk instead of a frontier evaluation — a hit returns the
   exact verdict evaluation would compute), fall back to the real
   evaluator, and turn any fresh blocked verdict into a stored constraint
   for the next candidate that shares the failing prefix. *)
let compute t clause example =
  match t.prune with
  | Some ps -> (
      let key = Eval_plan.key t.compiled clause in
      match Prune.probe ps ~example ~key with
      | Some i -> (Logic.Subsumption.Blocked i, Store)
      | None ->
          let v = eval_uncached t clause example in
          (match v with
          | Logic.Subsumption.Blocked i ->
              if Prune.learn ps ~example ~key ~blocked:i then
                Budget.hit_opt t.budget Budget.Constraint_learned
          | Logic.Subsumption.Covered _ -> ());
          (v, Computed))
  | None -> (eval_uncached t clause example, Computed)

(** [eval_src t clause example] evaluates [clause] against [example] with
    the substitution-set prefix evaluator: [Covered w] with a witness, or
    [Blocked i] with the 1-based index of the blocking body literal — the
    primitive ARMG needs (Section 2.3.2). [Blocked 0] means the head itself
    cannot be bound to the example. The second component says who answered:
    the verdict memo, the failure-constraint store, or a real evaluation.
    The verdict is identical whichever did; the tag only feeds {!Learn}'s
    search-funnel accounting. *)
let eval_src t clause example =
  match t.memo with
  | None -> compute t clause example
  (* "memo" chaos: pretend the cache lost this entry — bypass the probe
     and the insert and recompute. Purity of verdicts means the answer is
     identical, so chaos here degrades throughput, never correctness. *)
  | Some _ when Chaos.fires "memo" -> compute t clause example
  | Some m -> (
      let key = memo_key (Eval_plan.key t.compiled clause) example in
      let s = memo_stripe key in
      let lock = m.locks.(s) and tbl = m.tables.(s) in
      Mutex.lock lock;
      let cached = Memo_tbl.find_opt tbl key in
      Mutex.unlock lock;
      match cached with
      | Some v ->
          Atomic.incr m.hits;
          Budget.hit_opt t.budget Budget.Coverage_memo_hit;
          (v, Memo)
      | None ->
          Atomic.incr m.misses;
          Budget.hit_opt t.budget Budget.Coverage_memo_miss;
          let (v, _) as r = compute t clause example in
          Mutex.lock lock;
          if Memo_tbl.length tbl < memo_stripe_cap && not (Memo_tbl.mem tbl key)
          then Memo_tbl.add tbl key v;
          Mutex.unlock lock;
          r)

let eval t clause example = fst (eval_src t clause example)

(** [covers t clause example] tests whether [clause] covers [example]. *)
let covers t clause example =
  match eval t clause example with
  | Logic.Subsumption.Covered _ -> true
  | Logic.Subsumption.Blocked _ -> false

(** [count_many ?pool t clause examples] is how many of [examples] [clause]
    covers, with the per-example tests fanned out across [pool] when given
    (sequential without one). *)
let count_many ?pool t clause examples =
  traced_batch t "count_many" ~examples:(List.length examples) (fun () ->
      Parallel.Par.parallel_filter_count ?pool (covers t clause) examples)

(** [definition_covers t def example] holds iff some clause of [def] covers
    [example] (Horn-definition coverage, Definition 2.4). *)
let definition_covers t def example =
  List.exists (fun c -> covers t c example) def
