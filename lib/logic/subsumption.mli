(** θ-subsumption testing (Section 5 of the paper).

    Clause [c] θ-subsumes ground clause [g] iff there is a substitution θ
    with body(c)θ ⊆ body(g). Deciding this is NP-hard; the engine here is a
    left-to-right {e substitution-frontier} evaluator whose per-literal
    frontier is capped. It is approximate only toward "no" (coverage is
    under-approximated, never over-approximated), linear in the body, and
    reports the paper's {e blocking atom} for free. ARMG runs on it, and it
    is the oracle for the compiled kernel ({!Compiled}) that evaluates
    coverage in production. The exact conjunctive-query search over a
    whole database is [Learning.Query]. *)

type ground
(** A ground clause body, pre-grouped by relation symbol and indexed by
    (predicate, position, value). *)

(** [ground_of_literals ls] indexes ground literals [ls].
    @raise Invalid_argument if some literal is not ground. *)
val ground_of_literals : Literal.t list -> ground

val ground_size : ground -> int
val ground_literals : ground -> Literal.t list

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
