(** Precision, recall and F-measure (Section 6.1, "Measure"). *)

type t = {
  precision : float;
  recall : float;
  f_measure : float;
}
[@@deriving eq, show { with_path = false }]

(** [of_counts ~true_positives ~covered ~positives] computes the paper's
    measures: precision = TP / covered, recall = TP / positives. A definition
    covering nothing has precision 0 by convention (the paper reports 0 for
    such rows). *)
let of_counts ~true_positives ~covered ~positives =
  let precision =
    if covered = 0 then 0.
    else float_of_int true_positives /. float_of_int covered
  in
  let recall =
    if positives = 0 then 0.
    else float_of_int true_positives /. float_of_int positives
  in
  let f_measure =
    if precision +. recall = 0. then 0.
    else 2. *. precision *. recall /. (precision +. recall)
  in
  { precision; recall; f_measure }

let zero = { precision = 0.; recall = 0.; f_measure = 0. }

(** [mean ms] averages each component; the cross-validation reports this. *)
let mean = function
  | [] -> zero
  | ms ->
      let n = float_of_int (List.length ms) in
      let sum f = List.fold_left (fun acc m -> acc +. f m) 0. ms in
      {
        precision = sum (fun m -> m.precision) /. n;
        recall = sum (fun m -> m.recall) /. n;
        f_measure = sum (fun m -> m.f_measure) /. n;
      }

let pp_row ppf m =
  Fmt.pf ppf "P=%.2f R=%.2f FM=%.2f" m.precision m.recall m.f_measure

(** [evaluate cov definition ~positives ~negatives] scores a learned
    definition on a labelled test set using coverage testing, the per-example
    tests fanned out over the context's pool. *)
let evaluate cov definition ~positives ~negatives =
  let count =
    Parallel.Par.parallel_filter_count ?pool:(Learning.Coverage.pool cov)
      (Learning.Coverage.definition_covers cov definition)
  in
  let tp = count positives in
  let fp = count negatives in
  of_counts ~true_positives:tp ~covered:(tp + fp)
    ~positives:(List.length positives)
