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
   tracks real (uncached) subsumption evaluations; cache traffic and
   inheritance stay in the Budget counters — the single source of truth for
   degradation accounting — and show up as span args here. *)
let m_eval = Obs.Metrics.histogram "coverage.eval_s"
let m_tests = Obs.Metrics.counter "coverage.tests"
let m_ground_bcs = Obs.Metrics.counter "coverage.ground_bcs_built"

(* {2 The verdict cache}

   Coverage verdicts are pure: [eval] is a function of (clause, ground BC)
   and the ground BC of an example is a pure function of (master seed,
   example). The cache therefore keeps verdicts keyed by (clause key,
   example) — the clause key is the compiled plan's canonical int-id array,
   injective exactly where the printed clause is (ARMG and reduction never
   rename variables), with no printing per test — and a cached verdict is
   bit-identical to a recomputed one, so enabling the cache cannot change
   any learned definition.

   A [Blocked i] verdict depends only on the clause prefix through literal
   [i]: the frontier evaluator never looks past the literal it dies at, and
   its truncation subsampling is deterministic (ARMG's blocking atom,
   Section 2.3.2). So a blocked verdict is stored at that prefix of the key
   — the key is prefix-free, pred then arity then exactly arity args per
   literal — where it answers every clause that starts with the same
   literals. A [Covered] verdict depends on the whole clause and is stored
   at the full key. A lookup probes the full key, then the literal
   boundaries shortest first, accepting only blocked entries there: a
   covered prefix says nothing about the clauses that extend it.

   The table is striped by example, so a lookup takes one stripe lock and
   pool workers scoring different examples do not contend. Misses compute
   the verdict outside any lock (racing duplicates insert the same value).
   Stripes are capped so a long run cannot grow the table without bound:
   once a stripe is full, new verdicts are simply not remembered — which is
   deterministic, verdicts being pure. The cache is never checkpointed: a
   resumed run recomputes what it needs. *)

let cache_stripes = 16
let stripe_cap = 1 lsl 14  (** per stripe; ~256k entries in total *)

(* The hash of the first [len] ints of a clause key and the example, rolled
   one int at a time so every literal boundary of a key gets its hash in one
   pass. [Hashtbl.hash] on the pair would stop after 10 ints, all from the
   clause key (real keys are longer), and put every verdict of one clause in
   one bucket chain. *)
let roll acc x = (acc * 31) + x
let seal acc = Hashtbl.hash acc

(* An entry covers the first [len] ints of [key]; an entry stored at a
   prefix shares the array of the clause that produced it. *)
type cache_key = {
  hash : int;
  key : int array;
  len : int;
  example : Relational.Relation.tuple;
}

(* [seed] is the example's tuple hash, computed once per lookup. *)
let prefix_key ~seed key len example =
  let acc = ref seed in
  for j = 0 to len - 1 do
    acc := roll !acc key.(j)
  done;
  { hash = seal !acc; key; len; example }

let memo_hash key example =
  let seed = Relational.Relation.hash_tuple example in
  (prefix_key ~seed key (Array.length key) example).hash

module Cache_tbl = Hashtbl.Make (struct
  type t = cache_key

  let equal a b =
    a.hash = b.hash && a.len = b.len
    && (let rec same i = i >= a.len || (a.key.(i) = b.key.(i) && same (i + 1)) in
        same 0)
    && Relational.Relation.equal_tuple a.example b.example

  let hash k = k.hash
end)

type stripe = {
  lock : Mutex.t;
  table : Logic.Subsumption.verdict Cache_tbl.t;
  mutable blocked : int;  (** [Blocked] entries in [table] *)
}

type cache = {
  stripes : stripe array;
  hits : int Atomic.t;  (** whole-key hits *)
  misses : int Atomic.t;  (** lookups without a whole-key hit *)
  prefix_hits : int Atomic.t;  (** misses answered by a blocked prefix *)
}

type cache_stats = { hits : int; misses : int; entries : int }
type prune_stats = { probes : int; hits : int; constraints : int }

(* End offset of the literal segment after [p] in a canonical key. *)
let next_boundary key p = p + 2 + key.(p + 1)

(* [lookup c key example] — the cached verdict of the clause with canonical
   key [key], and whether it came from the whole key ([true]) or from a
   blocked prefix ([false]). Holds the example's stripe lock throughout. *)
let stripe_of c seed = c.stripes.(seed land max_int mod cache_stripes)

let lookup c key example =
  let seed = Relational.Relation.hash_tuple example in
  let n = Array.length key in
  let full = prefix_key ~seed key n example in
  let st = stripe_of c seed in
  Mutex.lock st.lock;
  let r =
    match Cache_tbl.find_opt st.table full with
    | Some v -> Some (v, true)
    | None ->
        let rec walk acc i p =
          if p >= n then None
          else
            let acc = ref acc in
            for j = i to p - 1 do
              acc := roll !acc key.(j)
            done;
            match
              Cache_tbl.find_opt st.table
                { hash = seal !acc; key; len = p; example }
            with
            | Some (Logic.Subsumption.Blocked _ as v) -> Some (v, false)
            | Some (Logic.Subsumption.Covered _) | None ->
                walk !acc p (next_boundary key p)
        in
        walk seed 0 (next_boundary key 0)
  in
  Mutex.unlock st.lock;
  r

(* [store c key example v] remembers [v]: at the full key when covered, at
   the prefix through the blocking literal when blocked. [true] iff a new
   blocked entry was stored. *)
let store c key example v =
  let len =
    match v with
    | Logic.Subsumption.Covered _ -> Array.length key
    | Logic.Subsumption.Blocked i ->
        let p = ref (next_boundary key 0) in
        for _ = 1 to i do
          p := next_boundary key !p
        done;
        !p
  in
  let seed = Relational.Relation.hash_tuple example in
  let k = prefix_key ~seed key len example in
  let st = stripe_of c seed in
  Mutex.lock st.lock;
  let added =
    Cache_tbl.length st.table < stripe_cap && not (Cache_tbl.mem st.table k)
  in
  if added then Cache_tbl.add st.table k v;
  let blocked =
    added && match v with Logic.Subsumption.Blocked _ -> true | _ -> false
  in
  if blocked then st.blocked <- st.blocked + 1;
  Mutex.unlock st.lock;
  blocked

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
  cache : cache option;
      (** the verdict cache; [None] = disabled ([--no-coverage-cache]) *)
  pool : Parallel.Pool.t option;
      (** the pool callers that score definitions on this context fan out
          over; coverage itself never reads it *)
  compiled : Eval_plan.t;
  budget : Budget.t option;
      (** sink for degradation counters (frontier truncations, cache
          hits/misses); never changes any coverage verdict *)
}

let create ?(bc_config = Bottom_clause.default_config) ?budget
    ?(use_cache = true) ?pool db bias ~rng =
  {
    db;
    bias;
    bc_config;
    seed_base = Random.State.bits rng;
    grounds = Hashtbl.create 256;
    lock = Mutex.create ();
    cache =
      (if use_cache then
         Some
           {
             stripes =
               Array.init cache_stripes (fun _ ->
                   {
                     lock = Mutex.create ();
                     table = Cache_tbl.create 512;
                     blocked = 0;
                   });
             hits = Atomic.make 0;
             misses = Atomic.make 0;
             prefix_hits = Atomic.make 0;
           }
       else None);
    pool;
    compiled = Eval_plan.create ();
    budget;
  }

(* Sum [f] over the stripes, each read under its lock. *)
let sum_stripes (c : cache) f =
  Array.fold_left
    (fun acc (st : stripe) ->
      Mutex.lock st.lock;
      let n = acc + f st in
      Mutex.unlock st.lock;
      n)
    0 c.stripes

let cache_stats t : cache_stats =
  match t.cache with
  | None -> { hits = 0; misses = 0; entries = 0 }
  | Some c ->
      {
        hits = Atomic.get c.hits;
        misses = Atomic.get c.misses;
        entries = sum_stripes c (fun st -> Cache_tbl.length st.table);
      }

let prune_stats t : prune_stats =
  match t.cache with
  | None -> { probes = 0; hits = 0; constraints = 0 }
  | Some c ->
      {
        probes = Atomic.get c.misses;
        hits = Atomic.get c.prefix_hits;
        constraints = sum_stripes c (fun st -> st.blocked);
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

(* Batch entry points run inside a span carrying the batch size and the
   cache traffic the batch generated (hit/miss deltas read from the cache's
   own atomics). Checking [enabled] first keeps the disabled path at one
   atomic load before the real work. *)
let traced_batch t name ~examples f =
  if not (Obs.Trace.enabled ()) then f ()
  else
    Obs.Trace.span ~cat:"coverage"
      ~args:[ ("examples", string_of_int examples) ]
      name
      (fun () ->
        match t.cache with
        | None -> f ()
        | Some c ->
            let h0 = Atomic.get c.hits and m0 = Atomic.get c.misses in
            let r = f () in
            Obs.Trace.arg "memo_hits" (string_of_int (Atomic.get c.hits - h0));
            Obs.Trace.arg "memo_misses"
              (string_of_int (Atomic.get c.misses - m0));
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
   counters expose exactly how many tests the cache and ARMG inheritance
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

(** [eval_src t clause example] evaluates [clause] against [example] with
    the substitution-set prefix evaluator: [Covered w] with a witness, or
    [Blocked i] with the 1-based index of the blocking body literal — the
    primitive ARMG needs (Section 2.3.2). [Blocked 0] means the head itself
    cannot be bound to the example. The second component says who answered:
    the cache at the whole key, the cache at a blocked prefix, or a real
    evaluation. The verdict is identical whichever did; the tag only feeds
    {!Learn}'s search-funnel accounting. *)
let eval_src t clause example =
  match t.cache with
  | None -> (eval_uncached t clause example, Computed)
  (* "memo" chaos: pretend the cache lost this entry — bypass the lookup
     and the insert and recompute. Purity of verdicts means the answer is
     identical, so chaos here degrades throughput, never correctness. *)
  | Some _ when Chaos.fires "memo" -> (eval_uncached t clause example, Computed)
  | Some c -> (
      let key = Eval_plan.key t.compiled clause in
      match lookup c key example with
      | Some (v, true) ->
          Atomic.incr c.hits;
          Budget.hit_opt t.budget Budget.Coverage_memo_hit;
          (v, Memo)
      | found -> (
          Atomic.incr c.misses;
          Budget.hit_opt t.budget Budget.Coverage_memo_miss;
          match found with
          | Some (v, _) ->
              Atomic.incr c.prefix_hits;
              (v, Store)
          | None ->
              let v = eval_uncached t clause example in
              if store c key example v then
                Budget.hit_opt t.budget Budget.Constraint_learned;
              (v, Computed)))

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
