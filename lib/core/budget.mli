(** Resource governance for the learner: a deadline, a cooperative
    cancellation token, and degradation counters — the contract that makes
    every learning entry point {e anytime}: a call always returns within its
    deadline with the best answer found so far, and reports exactly how
    degraded that answer is.

    A [Budget.t] is cheap to share: the cancellation flag and the counters
    are atomics, safe to touch from any domain (pool workers check the flag
    between jobs; {!Subsumption} and {!Coverage} bump counters from inside
    coverage tests). {!scope} derives a child budget with a tighter deadline
    that still shares the parent's flag and counters — one token cancels a
    whole cross-validation run, while each fold keeps its own per-fold
    deadline. *)

type t

(** Why a run ended. [Completed] means no resource limit fired. *)
type status = Completed | Deadline_hit | Cancelled

val equal_status : status -> status -> bool
val status_to_string : status -> string
val pp_status : Format.formatter -> status -> unit

exception Expired of status
(** Raised by {!check}; never [Expired Completed]. *)

(** [create ?job ?deadline ()] is a fresh budget; [deadline] is wall-clock
    seconds from now ([None] = unbounded). [job] is an opaque trace-context
    label (e.g. the daemon's ["job-3"]) carried by the budget so every layer
    the budget reaches — pool workers, the learner, the tracer — can tag
    its telemetry with the owning job. *)
val create : ?job:string -> ?deadline:float -> unit -> t

(** [scope ?deadline parent] is a child budget sharing [parent]'s
    cancellation flag, counters, job label and phase cell, whose deadline is
    the earlier of [parent]'s and now + [deadline]. Cancelling either
    cancels both. *)
val scope : ?deadline:float -> t -> t

(** [job t] is the trace-context label minted at {!create}. *)
val job : t -> string option

(** [set_phase t p] notes the phase the budget's owner is currently in
    (["beam_step 2"], ["reduce"], …). One atomic store; shared across
    {!scope} children so a daemon can read a job's live phase from another
    domain. *)
val set_phase : t -> string -> unit

(** [phase t] is the last phase note ([""] before any {!set_phase}). *)
val phase : t -> string

(** [now ()] is a monotonized [Unix.gettimeofday]: the value never
    decreases across calls, even if the system clock steps backwards. *)
val now : unit -> float

(** [deadline_at t] is the absolute expiry time, if any. *)
val deadline_at : t -> float option

(** [cancel t] sets the (shared) cancellation flag. Idempotent, safe from
    any domain. Cooperative: running jobs finish, no new work starts. *)
val cancel : t -> unit

val is_cancelled : t -> bool

(** [expired t] — cancelled, or past the deadline. *)
val expired : t -> bool

(** [status t] — [Cancelled] wins over [Deadline_hit] wins over
    [Completed]. *)
val status : t -> status

(** [check t] raises {!Expired} when [expired t]. *)
val check : t -> unit

(** [sleepf ?budget ?stop d] sleeps [d] seconds in small chunks, returning
    early as soon as [budget] is expired/cancelled or [stop ()] is true —
    the budget-respecting replacement for [Unix.sleepf] in retry-backoff
    loops, so a cancelled job is never held hostage by its own backoff. *)
val sleepf : ?budget:t -> ?stop:(unit -> bool) -> float -> unit

(** {1 Degradation counters}

    Every counter is monotone non-decreasing and shared across {!scope}
    children. Components report {e how} they degraded the answer instead of
    silently under-approximating.

    Under a domain pool, [subsumption_tries], [candidates_pruned],
    [constraints_learned], [coverage_memo_hits] and [coverage_memo_misses]
    depend on scheduling: two workers can miss the verdict cache on one
    (clause, example) at once and both evaluate it, and a clause is
    answered from a blocked prefix only if a sibling stored that prefix
    first. Verdicts and definitions do not change; sequential runs count
    exactly. *)

type event =
  | Subsumption_try
      (** one real coverage evaluation: a compiled frontier run of a clause
          against an example's ground BC. Verdicts from the cache or
          inherited from a parent clause count none. *)
  | Subsumption_exhausted
      (** a subsumption test gave up on its node budget instead of
          proving non-coverage. It has no producer: the restarted
          backtracking test that raised it was deleted, so it reads 0 on
          every run. It stays because benchmark output still reports it. *)
  | Coverage_truncated
      (** a substitution frontier overflowed its cap and was subsampled *)
  | Coverage_memo_hit
      (** a coverage verdict was served from the verdict cache at the
          clause's whole key, without running a subsumption test *)
  | Coverage_memo_miss
      (** the verdict cache had no entry at the clause's whole key: the
          verdict came from a stored blocked prefix or was computed *)
  | Coverage_inherited
      (** a coverage verdict was inherited from a parent clause by ARMG
          monotonicity, without running a subsumption test *)
  | Beam_cut  (** a beam search was cut by a deadline before converging *)
  | Candidate_abandoned
      (** a generated candidate clause was never evaluated *)
  | Job_skipped  (** a parallel job slot skipped after expiry *)
  | Worker_fault  (** a pool worker dropped an exception during the run *)
  | Worker_restarted
      (** a crashed worker domain was replaced by the pool's supervisor *)
  | Job_quarantined
      (** a job was quarantined after repeatedly killing its worker *)
  | Checkpoint_written  (** a learner checkpoint was written at a boundary *)
  | Checkpoint_skipped
      (** a checkpoint write was skipped (injected fault or I/O error); the
          run continues, the previous checkpoint survives *)
  | Candidate_pruned
      (** a beam candidate (or the bottom clause) was scored without
          running the evaluator, with at least one verdict from a blocked
          prefix in the verdict cache *)
  | Constraint_learned
      (** a blocked coverage verdict was stored in the verdict cache at the
          prefix through its blocking literal *)

(** [hit t e] bumps [e]'s counter by one. Lock-free. *)
val hit : t -> event -> unit

(** [add t e n] bumps [e]'s counter by [n]. *)
val add : t -> event -> int -> unit

(** [hit_opt b e] is [hit] through an optional budget (no-op on [None]) —
    the shape the [?budget] threading uses. *)
val hit_opt : t option -> event -> unit

(** [add_assoc t kvs] credits counters by their {!counters_to_assoc} names
    (unknown names are ignored) — how a resumed run restores the counters
    its checkpoint recorded. *)
val add_assoc : t -> (string * int) list -> unit

type counters = {
  subsumption_tries : int;
  subsumption_exhausted : int;
  coverage_truncated : int;
  coverage_memo_hits : int;
  coverage_memo_misses : int;
  coverage_inherited : int;
  beam_rounds_cut : int;
  candidates_abandoned : int;
  jobs_skipped : int;
  worker_faults : int;
  workers_restarted : int;
  jobs_quarantined : int;
  checkpoints_written : int;
  checkpoints_skipped : int;
  candidates_pruned : int;
  constraints_learned : int;
}

(** [counters t] is a consistent-enough snapshot (each cell is read
    atomically; cells are independent). *)
val counters : t -> counters

val zero : counters

(** [counters_leq a b] — every counter of [a] is [<=] its counter in [b]
    (the monotonicity the qcheck property asserts). *)
val counters_leq : counters -> counters -> bool

(** [counters_to_assoc c] is every counter as [(snake_case_name, value)], in
    declaration order — the shape JSON exporters ({!Obs.Run_report}, the
    bench harness) reuse. *)
val counters_to_assoc : counters -> (string * int) list

(** [pp_counters ppf c] prints only the nonzero counters ("no degradation
    events" when all are zero), keeping [--deadline] CLI output readable. *)
val pp_counters : Format.formatter -> counters -> unit

(** {1 Degradation record} — how a finished run should be read. *)

type degradation = {
  status : status;
  counters : counters;
}

(** [degradation ?status t] snapshots [t]; [status] defaults to
    [status t] but callers that captured {e why} their loop exited pass it
    explicitly (a deadline elapsing a microsecond after natural completion
    must still read [Completed]). *)
val degradation : ?status:status -> t -> degradation

val pp_degradation : Format.formatter -> degradation -> unit
