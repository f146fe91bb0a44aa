(** θ-subsumption testing (Section 5 of the paper).

    Clause [c] θ-subsumes ground clause [g] iff there is a substitution θ
    with body(c)θ ⊆ body(g). Deciding this is NP-hard; two approximate
    engines are provided, both erring toward answering "no" (coverage is
    under-approximated, never over-approximated):

    - a budgeted backtracking search with value-indexed candidate filtering,
      fail-first ordering, unit propagation and randomized restarts (after
      the paper's reference [29], Kuzelka & Zelezny);
    - a left-to-right {e substitution-frontier} evaluator whose per-literal
      frontier is capped — linear-time, and the engine the learner uses,
      because it reports the paper's {e blocking atom} for free. *)

type ground
(** A ground clause body, pre-grouped by relation symbol and indexed by
    (predicate, position, value). *)

(** [ground_of_literals ls] indexes ground literals [ls].
    @raise Invalid_argument if some literal is not ground. *)
val ground_of_literals : Literal.t list -> ground

val ground_size : ground -> int
val ground_literals : ground -> Literal.t list

type config = {
  node_budget : int;  (** backtracking nodes allowed per try *)
  restarts : int;  (** randomized retries after the first try *)
}

val default_config : config

(** The engine's honest verdict: the boolean entry points answer "no" both
    when no subsumption was {e proved} impossible and when the search merely
    {e gave up} (every restart exhausted its node budget — the paper's
    under-approximating trade-off); this type keeps the two apart. *)
type answer =
  | Subsumed of Substitution.t  (** a witness substitution *)
  | Not_subsumed  (** proved: some try exhausted the space within budget *)
  | Gave_up  (** unknown: every try ran out of nodes *)

(** [subsumes_answer ?config ?rng ?budget ~subst c g] — the tri-state test.
    Reports tries, restarts and give-ups into [budget]'s counters
    ([Subsumption_try] / [Subsumption_restart] / [Subsumption_exhausted]),
    so callers get the degradation accounting even when the boolean answer
    is unchanged. A definitive [Not_subsumed] on the first try skips the
    randomized restarts (they could only rediscover the same proof). *)
val subsumes_answer :
  ?config:config ->
  ?rng:Random.State.t ->
  ?budget:Budget.t ->
  subst:Substitution.t ->
  Clause.t ->
  ground ->
  answer

(** [subsumes_subst ?config ?rng ?budget ~subst c g] tests whether the body
    of [c] maps into [g] by some extension of [subst] (coverage testing
    binds the head from the example first). Returns the witnessing
    substitution; [Gave_up] collapses to [None]. *)
val subsumes_subst :
  ?config:config ->
  ?rng:Random.State.t ->
  ?budget:Budget.t ->
  subst:Substitution.t ->
  Clause.t ->
  ground ->
  Substitution.t option

(** [subsumes ?config ?rng ?budget c g] is {!subsumes_subst} from the empty
    substitution. *)
val subsumes :
  ?config:config ->
  ?rng:Random.State.t ->
  ?budget:Budget.t ->
  Clause.t ->
  ground ->
  bool

(** {1 Prefix evaluation with substitution frontiers} *)

type verdict =
  | Covered of Substitution.t  (** a witness substitution *)
  | Blocked of int
      (** 1-based index of the blocking body literal (Section 2.3.2) *)

val default_frontier_cap : int

(** [step_frontier_n ?cap ?budget g frontier ~frontier_n lit] advances the
    frontier across one body literal: all extensions mapping [lit] into
    [g], deduplicated, stride-capped at [cap] (preserving binding
    diversity), and rotated. An empty result means [lit] blocks. A cap
    overflow — the point where the test becomes approximate — bumps
    [budget]'s [Coverage_truncated] counter instead of passing silently.
    [frontier_n] is [frontier]'s length, which every producer of a frontier
    already knows; the new frontier comes back with its length, so a
    left-to-right sweep never recounts a list. *)
val step_frontier_n :
  ?cap:int ->
  ?budget:Budget.t ->
  ground ->
  Substitution.t list ->
  frontier_n:int ->
  Literal.t ->
  Substitution.t list * int

(** [eval_prefix ?cap ?budget ~subst c g] evaluates the body of [c] left to
    right from [subst], one {!step_frontier_n} per literal. *)
val eval_prefix :
  ?cap:int -> ?budget:Budget.t -> subst:Substitution.t -> Clause.t -> ground -> verdict

(** [covers_ground ?cap ?budget ~subst c g] is the boolean form of
    {!eval_prefix}. *)
val covers_ground :
  ?cap:int -> ?budget:Budget.t -> subst:Substitution.t -> Clause.t -> ground -> bool
