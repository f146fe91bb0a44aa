(** Search-funnel accounting: where each generated candidate clause went,
    per beam step — the "where did my budget go" answer for the learner's
    search.

    Each candidate a beam step produces is resolved by exactly one
    mechanism (precedence: evaluated, inherited, prune_hit, memo_hit), so
    per step

    {[ generated = prune_hit + memo_hit + inherited + evaluated ]}

    and [accepted <= generated] (the beam keeps at most [beam_width] of
    them). The registry is process-global like {!Metrics}: steps aggregate
    across clause searches (and across jobs in a daemon); {!reset} starts a
    fresh window. Recording is lock-free ([fetch_and_add] per bucket) and
    purely observational — it cannot change a learned definition. *)

type row = {
  step : int;  (** 1-based beam step; [0] only in {!total} *)
  generated : int;  (** candidates produced (after dedup) and resolved *)
  prune_hit : int;
      (** scored without running the evaluator, with at least one verdict
          from a blocked prefix in the verdict cache *)
  memo_hit : int;
      (** scored with every coverage verdict served from the verdict cache
          at the clause's whole key *)
  inherited : int;  (** scored entirely from parent-inherited coverage *)
  evaluated : int;  (** needed at least one real subsumption evaluation *)
  accepted : int;  (** entered the beam at this step *)
}

(** [record ~step ...] adds one step's tallies (non-negative; [step]
    clamps into [1..64], deeper steps folding into the last row). *)
val record :
  step:int ->
  generated:int ->
  prune_hit:int ->
  memo_hit:int ->
  inherited:int ->
  evaluated:int ->
  accepted:int ->
  unit

(** [snapshot ()] is the non-empty rows, in step order. *)
val snapshot : unit -> row list

(** [reset ()] zeroes the registry (tests and per-run CLI windows). *)
val reset : unit -> unit

(** [invariant_holds r] — the partition invariant above. *)
val invariant_holds : row -> bool

(** [total rows] sums rows into one row with [step = 0]. *)
val total : row list -> row

val to_json : row list -> Json.t

(** [pp ppf rows] renders the human funnel tree the CLI prints. *)
val pp : Format.formatter -> row list -> unit

val to_string : row list -> string
