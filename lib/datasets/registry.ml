let generators =
  [
    ("uw", Uw.generate);
    ("imdb", Imdb.generate);
    ("hiv", Hiv.generate);
    ("flt", Flt.generate);
    ("sys", Sys_data.generate);
  ]

let names = List.map fst generators

let generate ~name ~scale ~seed =
  match List.assoc_opt name generators with
  | Some gen -> Ok (gen ~seed ~scale ())
  | None ->
      Error
        (Printf.sprintf "unknown dataset %S (known: %s)" name
           (String.concat ", " names))
