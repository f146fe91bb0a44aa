(** Process-wide lock-free metrics registry: monotone counters, gauges and
    fixed-bucket latency histograms, all safe to bump from pool workers on
    any domain.

    Handles are registered once (typically at module initialization — the
    registry lock is only taken on registration and snapshot, never on the
    bump path) and bumped through plain atomics, so a metric update on a hot
    path costs a few atomic read-modify-writes and no allocation. The
    registry is global on purpose, like {!Logs}: threading a registry value
    through every layer the learner touches would dwarf the subsystem it
    observes.

    The shared degradation events (memo hits/misses, subsumption tries, ...)
    stay in {!Budget} — the single source of truth — and are merged into
    exported snapshots by {!Run_report}, not double-counted here. *)

type counter
type gauge
type histogram

(** [counter name] registers (or retrieves) the monotone counter [name]. *)
val counter : string -> counter

val bump : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** [gauge name] registers (or retrieves) the gauge [name] — a value that
    can move both ways (queue depth, pool utilization). *)
val gauge : string -> gauge

val gauge_set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit

(** [histogram name] registers (or retrieves) a latency histogram. Values
    are observed in {e seconds}; buckets are fixed log-spaced bounds from
    1µs to ~1 minute, so percentile estimates carry at most one bucket
    (×2) of error. *)
val histogram : string -> histogram

val observe : histogram -> float -> unit

(** [time h f] runs [f ()] and observes its wall-clock duration in [h]. *)
val time : histogram -> (unit -> 'a) -> 'a

type histogram_snapshot = {
  count : int;
  sum : float;  (** seconds *)
  p50 : float;
  p95 : float;
  p99 : float;  (** bucket-upper-bound estimates, seconds *)
  max : float;  (** exact, seconds *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram_snapshot) list;  (** sorted by name *)
}

(** [snapshot ()] reads every registered metric. Each cell is read
    atomically; cells are independent (same consistency contract as
    {!Budget.counters}). *)
val snapshot : unit -> snapshot

(** [percentile samples q] is the exact nearest-rank [q]-percentile
    ([q] in [\[0, 1\]]) of [samples] (a copy is sorted; [0.] on empty) —
    for latency reports that need exact numbers rather than the
    log-bucketed histogram estimates. *)
val percentile : float array -> float -> float

(** [counters_leq a b] — every counter present in [a] is [<=] its value in
    [b] (and present); the monotonicity the qcheck property asserts across
    concurrent bumps. *)
val counters_leq : snapshot -> snapshot -> bool

val to_json : snapshot -> Json.t

(** [reset ()] zeroes every registered metric (tests only — the bump path
    assumes it never races a reset). *)
val reset : unit -> unit
