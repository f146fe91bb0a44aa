(** Every synthetic dataset by name: the one lookup the CLI, the bench and
    the serving catalog share. *)

(** The known names, in the paper's order: uw, imdb, hiv, flt, sys. *)
val names : string list

(** [generate ~name ~scale ~seed] runs [name]'s generator. [Error msg] for
    an unknown [name]; [msg] lists the known datasets. *)
val generate :
  name:string -> scale:float -> seed:int -> (Dataset.t, string) result
