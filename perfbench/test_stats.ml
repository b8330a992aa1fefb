(* Tests of the benchmark's statistics. Expected quartiles are the
   values Python's statistics.quantiles(values, n=4) returns. *)

let close a b = Float.abs (a -. b) < 1e-12
let flt = Alcotest.testable (fun ppf f -> Format.fprintf ppf "%.17g" f) close

let test_median () =
  Alcotest.check flt "odd" 3. (Stats.median [ 5.; 1.; 3.; 4.; 2. ]);
  Alcotest.check flt "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check flt "single" 7. (Stats.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median []))

let test_quartiles () =
  let q l = Stats.quartiles l in
  let triple = Alcotest.(triple flt flt flt) in
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (q [ 1.; 2.; 3.; 4. ]);
  Alcotest.check triple "1..5 unsorted" (1.5, 3., 4.5) (q [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check triple "two values extrapolate" (-1.25, 5.5, 12.25) (q [ 1.; 10. ]);
  Alcotest.check triple "three" (1., 2., 3.) (q [ 3.; 1.; 2. ]);
  Alcotest.check flt "constant spread" 0. (Stats.iqr_share [ 2.5; 2.5; 2.5; 2.5 ]);
  Alcotest.check flt "spread" 1. (Stats.iqr_share [ 1.; 2.; 3.; 4. ])

let test_fastest () =
  Alcotest.check flt "minimum" 2. (Stats.fastest [ 5.; 2.; 9. ]);
  Alcotest.check flt "single" 7. (Stats.fastest [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.fastest: no samples") (fun () ->
      ignore (Stats.fastest []))

let test_percentile () =
  Alcotest.(check (option (pair flt flt))) "ten samples support none" None
    (Stats.supported_percentile (List.init 10 float_of_int));
  (* 20 samples 1..20: rank 10 has ten above it, at p50. *)
  Alcotest.(check (option (pair flt flt))) "twenty" (Some (50., 10.))
    (Stats.supported_percentile (List.init 20 (fun i -> float_of_int (20 - i))));
  Alcotest.(check (option (pair flt flt))) "hundred" (Some (90., 90.))
    (Stats.supported_percentile (List.init 100 (fun i -> float_of_int (i + 1))))

let test_geomean () =
  Alcotest.check flt "pair" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.check flt "single" 3. (Stats.geomean [ 3. ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

let test_counter_diff () =
  let a = [ ("paths", 6.); ("forks", 5.) ] in
  Alcotest.(check (list string)) "same counters agree" [] (Stats.counter_diff a (List.rev a));
  Alcotest.(check (list string)) "changed value" [ "forks" ]
    (Stats.counter_diff a [ ("paths", 6.); ("forks", 4.) ]);
  Alcotest.(check (list string)) "missing name" [ "merges" ]
    (Stats.counter_diff a (("merges", 0.) :: a))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "fastest sample" `Quick test_fastest;
          Alcotest.test_case "highest supported percentile" `Quick test_percentile;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "runs agree on counters" `Quick test_counter_diff;
        ] );
    ]
