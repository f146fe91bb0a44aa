(** Precision, recall and F-measure (Section 6.1, "Measure"). *)

type t = {
  precision : float;
  recall : float;
  f_measure : float;
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val show : t -> string

(** [of_counts ~true_positives ~covered ~positives]: precision = TP/covered,
    recall = TP/positives, F = harmonic mean; degenerate denominators give
    0, never NaN. *)
val of_counts : true_positives:int -> covered:int -> positives:int -> t

val zero : t

(** [mean ms] averages componentwise ([zero] for the empty list). *)
val mean : t list -> t

val pp_row : Format.formatter -> t -> unit

(** [evaluate cov definition ~positives ~negatives] scores a learned
    definition on a labelled set with coverage testing. The per-example
    tests fan out over [Learning.Coverage.pool cov] when the context has a
    pool; the counts, and so the result, are the same either way. *)
val evaluate :
  Learning.Coverage.t ->
  Logic.Clause.definition ->
  positives:Relational.Relation.tuple list ->
  negatives:Relational.Relation.tuple list ->
  t
