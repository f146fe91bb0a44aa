(* Closed-loop load generator. See loadgen.mli.

   Closed-loop means each client domain holds at most one job open: it
   submits, awaits the response (or the rejection), records, and only then
   takes the next job index off the shared counter. Offered load therefore
   adapts to service rate — the shape that makes admission control
   observable: with C clients against a daemon admitting I in flight and Q
   queued, at most C jobs are ever outstanding, and rejections appear
   exactly when C > I + Q.

   A well-behaved client honors the rejection's [retry_after] hint:
   [reject_retries] resubmits the same request after backing off, so under
   transient overload most jobs eventually run and the daemon sees
   sustained pressure rather than a stampede that burns every job index in
   the first second. A job is terminally rejected only once its retries
   are spent (or the daemon is draining). *)

type summary = {
  jobs : int;
  clients : int;
  completed : int;
  degraded : int;
  rejected : int;
  reject_events : int;
  quarantined : int;
  failed : int;
  retries : int;
  wall_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  reject_rate : float;
  accounted : bool;
}

type tally = {
  mutable t_completed : int;
  mutable t_degraded : int;
  mutable t_rejected : int;
  mutable t_reject_events : int;
  mutable t_quarantined : int;
  mutable t_failed : int;
  lats : float list ref;
}

let run ?(clients = 4) ?(jobs = 50) ?(reject_retries = 0)
    ?(max_backoff_s = 0.5) daemon requests =
  let clients = max 1 clients in
  let next = Atomic.make 0 in
  let tallies =
    Array.init clients (fun _ ->
        {
          t_completed = 0;
          t_degraded = 0;
          t_rejected = 0;
          t_reject_events = 0;
          t_quarantined = 0;
          t_failed = 0;
          lats = ref [];
        })
  in
  let client k =
    let tally = tallies.(k) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < jobs then begin
        let request = requests i in
        let rec attempt tries =
          match Daemon.submit daemon request with
          | Error Protocol.Draining ->
              (* no point retrying: the daemon is shutting down *)
              tally.t_reject_events <- tally.t_reject_events + 1;
              tally.t_rejected <- tally.t_rejected + 1
          | Error (Protocol.Overloaded { retry_after }) ->
              tally.t_reject_events <- tally.t_reject_events + 1;
              if tries >= reject_retries then
                tally.t_rejected <- tally.t_rejected + 1
              else begin
                Unix.sleepf (Float.max 0.01 (Float.min retry_after max_backoff_s));
                attempt (tries + 1)
              end
          | Ok job -> (
              let r = Daemon.await daemon job in
              tally.lats := r.Protocol.latency_s :: !(tally.lats);
              match r.Protocol.outcome with
              | Protocol.Completed _ ->
                  tally.t_completed <- tally.t_completed + 1
              | Protocol.Degraded _ -> tally.t_degraded <- tally.t_degraded + 1
              | Protocol.Quarantined _ ->
                  tally.t_quarantined <- tally.t_quarantined + 1
              | Protocol.Failed _ -> tally.t_failed <- tally.t_failed + 1)
        in
        attempt 0;
        loop ()
      end
    in
    loop ()
  in
  let started = Budget.now () in
  let doms =
    Array.init clients (fun k -> Domain.spawn (fun () -> client k))
  in
  Array.iter Domain.join doms;
  let wall_s = Budget.now () -. started in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let completed = sum (fun t -> t.t_completed) in
  let degraded = sum (fun t -> t.t_degraded) in
  let rejected = sum (fun t -> t.t_rejected) in
  let reject_events = sum (fun t -> t.t_reject_events) in
  let quarantined = sum (fun t -> t.t_quarantined) in
  let failed = sum (fun t -> t.t_failed) in
  let lats =
    Array.of_list
      (Array.fold_left (fun acc t -> !(t.lats) @ acc) [] tallies)
  in
  let pct = Obs.Metrics.percentile lats in
  {
    jobs;
    clients;
    completed;
    degraded;
    rejected;
    reject_events;
    quarantined;
    failed;
    retries = (Daemon.stats daemon).Daemon.retries;
    wall_s;
    p50_s = pct 0.50;
    p95_s = pct 0.95;
    p99_s = pct 0.99;
    reject_rate =
      (if jobs = 0 then 0. else float_of_int rejected /. float_of_int jobs);
    accounted = completed + degraded + rejected + quarantined + failed = jobs;
  }
