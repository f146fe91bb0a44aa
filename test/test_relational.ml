(* Tests for the relational substrate: values, schemas, relations, indexes,
   CSV, and the algebra operators. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Database = Relational.Database
module Ops = Relational.Ops

let v = Value.str
let vi = Value.int

let value_tests =
  [
    Alcotest.test_case "of_string parses integers" `Quick (fun () ->
        Alcotest.(check bool) "int" true (Value.equal (Value.of_string "42") (vi 42));
        Alcotest.(check bool) "neg" true (Value.equal (Value.of_string "-7") (vi (-7)));
        Alcotest.(check bool) "str" true (Value.equal (Value.of_string "a42") (v "a42")));
    Alcotest.test_case "of_string keeps non-canonical integer spellings" `Quick
      (fun () ->
        (* int_of_string reads all of these as integers; each must stay the
           string it is, or "0x10" and "16" would load as one value *)
        List.iter
          (fun s ->
            Alcotest.(check bool) s true (Value.equal (Value.of_string s) (v s)))
          [ "0x10"; "0o7"; "1_000"; "+5"; "007" ];
        Alcotest.(check bool) "42" true (Value.equal (Value.of_string "42") (vi 42));
        Alcotest.(check bool) "-7" true
          (Value.equal (Value.of_string "-7") (vi (-7))));
    Alcotest.test_case "to_string round-trips" `Quick (fun () ->
        Alcotest.(check string) "int" "42" (Value.to_string (vi 42));
        Alcotest.(check string) "str" "juan" (Value.to_string (v "juan")));
    Alcotest.test_case "int and str with same rendering differ" `Quick (fun () ->
        Alcotest.(check bool) "differ" false (Value.equal (vi 1) (v "1")));
    Alcotest.test_case "hash respects equality" `Quick (fun () ->
        Alcotest.(check int) "same" (Value.hash (v "x")) (Value.hash (v "x")));
  ]

let value_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"value compare is a total order (antisym)"
         ~count:200
         QCheck.(pair small_int small_int)
         (fun (a, b) ->
           let x = vi a and y = vi b in
           let c1 = Value.compare x y and c2 = Value.compare y x in
           (c1 = 0 && c2 = 0) || c1 * c2 < 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_string/to_string round-trip on words"
         ~count:200
         QCheck.(string_small_of QCheck.Gen.(char_range 'a' 'z'))
         (fun s ->
           QCheck.assume (s <> "");
           Value.equal (Value.of_string (Value.to_string (v s))) (v s)));
  ]

let schema_tests =
  [
    Alcotest.test_case "position finds columns" `Quick (fun () ->
        let rs = Schema.relation "r" [| "a"; "b"; "c" |] in
        Alcotest.(check int) "b" 1 (Schema.position rs "b");
        Alcotest.(check (option int)) "missing" None (Schema.position_opt rs "z"));
    Alcotest.test_case "duplicate attributes rejected" `Quick (fun () ->
        Alcotest.check_raises "dup" (Invalid_argument
          "Schema.relation: duplicate attribute a in r")
          (fun () -> ignore (Schema.relation "r" [| "a"; "a" |])));
    Alcotest.test_case "attributes carry the relation name" `Quick (fun () ->
        let rs = Schema.relation "r" [| "a"; "b" |] in
        match Schema.attributes rs with
        | [ x; y ] ->
            Alcotest.(check string) "x" "r[a]" (Schema.attribute_to_string x);
            Alcotest.(check string) "y" "r[b]" (Schema.attribute_to_string y)
        | _ -> Alcotest.fail "expected two attributes");
  ]

let sample_relation () =
  let rs = Schema.relation "emp" [| "name"; "dept" |] in
  Relation.of_tuples rs
    [
      [| v "ann"; v "cs" |];
      [| v "bob"; v "cs" |];
      [| v "cyd"; v "ee" |];
      [| v "dee"; v "cs" |];
    ]

let relation_tests =
  [
    Alcotest.test_case "cardinality and arity" `Quick (fun () ->
        let r = sample_relation () in
        Alcotest.(check int) "card" 4 (Relation.cardinality r);
        Alcotest.(check int) "arity" 2 (Relation.arity r));
    Alcotest.test_case "lookup via index" `Quick (fun () ->
        let r = sample_relation () in
        Alcotest.(check int) "cs" 3 (List.length (Relation.lookup r 1 (v "cs")));
        Alcotest.(check int) "ee" 1 (List.length (Relation.lookup r 1 (v "ee")));
        Alcotest.(check int) "none" 0 (List.length (Relation.lookup r 1 (v "me"))));
    Alcotest.test_case "frequency statistics" `Quick (fun () ->
        let r = sample_relation () in
        Alcotest.(check int) "freq cs" 3 (Relation.frequency r 1 (v "cs"));
        Alcotest.(check int) "max" 3 (Relation.max_frequency r 1);
        Alcotest.(check int) "distinct" 2 (Relation.distinct_count r 1));
    Alcotest.test_case "index updates incrementally on add" `Quick (fun () ->
        let r = sample_relation () in
        ignore (Relation.lookup r 1 (v "cs"));
        Relation.add r [| v "eve"; v "cs" |];
        Alcotest.(check int) "freq" 4 (Relation.frequency r 1 (v "cs"));
        Alcotest.(check int) "max" 4 (Relation.max_frequency r 1));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        let r = sample_relation () in
        Alcotest.check_raises "bad arity"
          (Invalid_argument "Relation.add: arity mismatch on emp (got 1, want 2)")
          (fun () -> Relation.add r [| v "solo" |]));
    Alcotest.test_case "select over a value set" `Quick (fun () ->
        let r = sample_relation () in
        let set = Value.Set.of_list [ v "cs"; v "me" ] in
        Alcotest.(check int) "selected" 3 (List.length (Relation.select r 1 set)));
    Alcotest.test_case "project produces the distinct set" `Quick (fun () ->
        let r = sample_relation () in
        Alcotest.(check int) "distinct depts" 2
          (Value.Set.cardinal (Relation.project r 1)));
  ]

let relation_properties =
  let tuples_gen =
    QCheck.(list_of_size Gen.(int_range 0 60) (pair (int_bound 5) (int_bound 5)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frequencies sum to cardinality" ~count:100
         tuples_gen
         (fun pairs ->
           let rs = Schema.relation "t" [| "a"; "b" |] in
           let r =
             Relation.of_tuples rs (List.map (fun (a, b) -> [| vi a; vi b |]) pairs)
           in
           let total =
             List.fold_left
               (fun acc value -> acc + Relation.frequency r 0 value)
               0
               (Relation.distinct_values r 0)
           in
           total = Relation.cardinality r));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"max_frequency bounds every frequency" ~count:100
         tuples_gen
         (fun pairs ->
           let rs = Schema.relation "t" [| "a"; "b" |] in
           let r =
             Relation.of_tuples rs (List.map (fun (a, b) -> [| vi a; vi b |]) pairs)
           in
           List.for_all
             (fun value -> Relation.frequency r 0 value <= Relation.max_frequency r 0)
             (Relation.distinct_values r 0)));
  ]

let database_tests =
  [
    Alcotest.test_case "find and totals" `Quick (fun () ->
        let db = Database.of_relations [ sample_relation () ] in
        Alcotest.(check int) "total" 4 (Database.total_tuples db);
        Alcotest.(check bool) "mem" true (Database.mem db "emp");
        Alcotest.(check bool) "not mem" false (Database.mem db "nope"));
    Alcotest.test_case "duplicate relation rejected" `Quick (fun () ->
        let db = Database.of_relations [ sample_relation () ] in
        Alcotest.check_raises "dup"
          (Invalid_argument "Database.add_relation: duplicate relation emp")
          (fun () -> Database.add_relation db (sample_relation ())));
    Alcotest.test_case "relations sorted by name" `Quick (fun () ->
        let a = Relation.create (Schema.relation "zz" [| "x" |]) in
        let b = Relation.create (Schema.relation "aa" [| "x" |]) in
        let db = Database.of_relations [ a; b ] in
        match Database.relations db with
        | [ r1; r2 ] ->
            Alcotest.(check string) "first" "aa" (Relation.name r1);
            Alcotest.(check string) "second" "zz" (Relation.name r2)
        | _ -> Alcotest.fail "expected two relations");
  ]

let csv_tests =
  [
    Alcotest.test_case "parse simple rows" `Quick (fun () ->
        let rs = Schema.relation "r" [| "a"; "b" |] in
        let r = Relational.Csv.parse_string ~schema:rs "x,1\ny,2\n" in
        Alcotest.(check int) "rows" 2 (Relation.cardinality r);
        Alcotest.(check int) "int parsed" 1 (List.length (Relation.lookup r 1 (vi 1))));
    Alcotest.test_case "quoted fields with commas and quotes" `Quick (fun () ->
        let rs = Schema.relation "r" [| "a"; "b" |] in
        let r = Relational.Csv.parse_string ~schema:rs "\"a,b\",\"say \"\"hi\"\"\"\n" in
        match Relation.tuples r with
        | [ t ] ->
            Alcotest.(check string) "comma" "a,b" (Value.to_string t.(0));
            Alcotest.(check string) "quote" "say \"hi\"" (Value.to_string t.(1))
        | _ -> Alcotest.fail "expected one row");
    Alcotest.test_case "round-trip preserves contents and order" `Quick (fun () ->
        let r = sample_relation () in
        let text = Relational.Csv.to_string r in
        let r2 =
          Relational.Csv.parse_string ~schema:(Relation.schema r) text
        in
        Alcotest.(check bool) "same tuples" true
          (List.rev (Relation.tuples r) = List.rev (Relation.tuples r2)));
    Alcotest.test_case "arity mismatch raises a typed error with the line"
      `Quick (fun () ->
        let rs = Schema.relation "r" [| "a"; "b" |] in
        match Relational.Csv.parse_string ~schema:rs "x,1\nbad\ny,2\n" with
        | _ -> Alcotest.fail "expected Csv.Error"
        | exception Relational.Csv.Error e ->
            Alcotest.(check int) "1-based line" 2 e.Relational.Csv.line;
            Alcotest.(check bool) "no file for strings" true
              (e.Relational.Csv.file = None);
            Alcotest.(check bool) "mentions arity" true
              (String.length e.Relational.Csv.message > 0));
  ]

let ops_tests =
  [
    Alcotest.test_case "semi-join keeps matching right tuples" `Quick (fun () ->
        let left =
          Relation.of_tuples (Schema.relation "l" [| "k" |]) [ [| v "cs" |] ]
        in
        let right = sample_relation () in
        Alcotest.(check int) "cs employees" 3
          (List.length (Ops.semi_join left 0 right 1)));
    Alcotest.test_case "semi-join over a value set" `Quick (fun () ->
        let keys = Value.Set.singleton (v "ee") in
        Alcotest.(check int) "ee" 1
          (List.length (Ops.semi_join_values keys (sample_relation ()) 1)));
    Alcotest.test_case "exact IND detection" `Quick (fun () ->
        let sub = Relation.of_tuples (Schema.relation "s" [| "x" |])
            [ [| v "cs" |]; [| v "ee" |] ]
        in
        let sup = sample_relation () in
        Alcotest.(check bool) "sub ⊆ sup" true (Ops.contains_all sub 0 sup 1);
        Alcotest.(check bool) "sup ⊄ sub(name)" false
          (Ops.contains_all sup 0 sub 0));
    Alcotest.test_case "ind_error counts missing distinct fraction" `Quick
      (fun () ->
        let sub = Relation.of_tuples (Schema.relation "s" [| "x" |])
            [ [| v "cs" |]; [| v "me" |]; [| v "bio" |]; [| v "ee" |] ]
        in
        let sup = sample_relation () in
        (* cs and ee present, me and bio missing: error 0.5 *)
        Alcotest.(check (float 1e-9)) "0.5" 0.5 (Ops.ind_error sub 0 sup 1));
    Alcotest.test_case "join_count matches materialized join" `Quick (fun () ->
        let left = sample_relation () in
        let right = sample_relation () in
        let count = Ops.join_count left 1 right 1 in
        let materialized = List.length (Ops.natural_join_tuples left 1 right 1) in
        Alcotest.(check int) "equal" materialized count);
  ]

let suite =
  value_tests @ value_properties @ schema_tests @ relation_tests
  @ relation_properties @ database_tests @ csv_tests @ ops_tests

let stats_tests =
  [
    Alcotest.test_case "column stats match direct queries" `Quick (fun () ->
        let r = sample_relation () in
        let c = Relational.Stats.column r 1 in
        Alcotest.(check int) "distinct" 2 c.Relational.Stats.distinct;
        Alcotest.(check int) "maxfreq" 3 c.Relational.Stats.max_frequency;
        Alcotest.(check (float 1e-9)) "ratio" 0.5 c.Relational.Stats.distinct_ratio;
        match c.Relational.Stats.top with
        | (top_v, top_n) :: _ ->
            Alcotest.(check string) "top value" "cs" (Value.to_string top_v);
            Alcotest.(check int) "top count" 3 top_n
        | [] -> Alcotest.fail "no top values");
    Alcotest.test_case "database stats cover every column" `Quick (fun () ->
        let db = Database.of_relations [ sample_relation () ] in
        Alcotest.(check int) "two columns" 2
          (List.length (Relational.Stats.database db)));
    Alcotest.test_case "empty relation has zero ratio" `Quick (fun () ->
        let r = Relation.create (Schema.relation "e" [| "a" |]) in
        let c = Relational.Stats.column r 0 in
        Alcotest.(check (float 0.)) "ratio" 0. c.Relational.Stats.distinct_ratio);
  ]

let suite = suite @ stats_tests
