(** Closed-loop load generator for the serving daemon: [clients] domains
    each submit-await-record one job at a time until [jobs] indices are
    consumed, so offered load adapts to service rate and admission
    control is exercised exactly when clients outnumber
    [max_in_flight + max_queue].

    The summary accounts for {e every} job index: completed + degraded +
    rejected + quarantined + failed = jobs ([accounted]) — the soak-test
    invariant that no submission is ever silently dropped. *)

type summary = {
  jobs : int;
  clients : int;
  completed : int;
  degraded : int;
  rejected : int;  (** terminally rejected jobs (retries spent / draining) *)
  reject_events : int;  (** every typed rejection seen, incl. retried ones *)
  quarantined : int;
  failed : int;
  retries : int;  (** daemon-side failed attempts that were re-run *)
  wall_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;  (** exact nearest-rank percentiles of job latency *)
  reject_rate : float;  (** terminally rejected / jobs *)
  accounted : bool;  (** every job ended in exactly one bucket *)
}

(** [run ?clients ?jobs ?reject_retries ?max_backoff_s daemon requests]
    drives [requests i] for [i] in [0..jobs-1] through the daemon. On an
    [Overloaded] rejection the client resubmits the {e same} request up to
    [reject_retries] times (default 0: one shot), sleeping the rejection's
    [retry_after] hint clamped to [\[10ms, max_backoff_s\]] in between —
    the well-behaved-client shape that keeps a closed loop applying
    pressure instead of burning its job budget on instant rejections. *)
val run :
  ?clients:int ->
  ?jobs:int ->
  ?reject_retries:int ->
  ?max_backoff_s:float ->
  Daemon.t ->
  (int -> Protocol.request) ->
  summary
