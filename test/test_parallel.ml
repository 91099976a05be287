(* Tests for the multicore construction path, the multicore stretch
   sweep and the stretch histogram. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let big = udg 131 400
let small = Gen.petersen ()

let test_parallel_equals_sequential () =
  List.iter
    (fun (name, par, seq) ->
      check (name ^ " identical") true (Edge_set.equal (par big) (seq big));
      check (name ^ " identical small") true (Edge_set.equal (par small) (seq small)))
    [
      ( "exact",
        (fun g -> Sharded.build ~domains:4 g (Sharded.Gdy_k { k = 1 })),
        Remote_spanner.exact_distance );
      ( "low-stretch",
        (fun g -> Sharded.build ~domains:4 g (Sharded.Mis { r = Remote_spanner.r_of_eps 0.5 })),
        fun g -> Remote_spanner.low_stretch g ~eps:0.5 );
      ( "k-conn",
        (fun g -> Sharded.build ~domains:4 g (Sharded.Gdy_k { k = 2 })),
        fun g -> Remote_spanner.k_connecting g ~k:2 );
      ( "2-conn",
        (fun g -> Sharded.build ~domains:4 g (Sharded.Mis_k { k = 2 })),
        Remote_spanner.two_connecting );
    ]

let test_parallel_domain_counts () =
  (* result independent of the domain count *)
  let exact domains g = Sharded.build ~domains g (Sharded.Gdy_k { k = 1 }) in
  let reference = exact 1 big in
  List.iter
    (fun d ->
      check
        (Printf.sprintf "domains=%d" d)
        true
        (Edge_set.equal reference (exact d big)))
    [ 2; 3; 5; 7; 16 ]

let test_parallel_empty_and_tiny () =
  let g0 = Gen.empty 0 in
  let exact g = Sharded.build ~domains:4 g (Sharded.Gdy_k { k = 1 }) in
  check_int "empty" 0 (Edge_set.cardinal (exact g0));
  let g1 = Gen.path_graph 3 in
  check "tiny equals seq" true
    (Edge_set.equal
       (exact g1)
       (Remote_spanner.exact_distance g1))

let test_default_domains_positive () =
  check "positive" true (Sharded.default_domains () >= 1)

(* The one stretch sweep against the old sequential sweep kept in
   test/reference.ml, on random graphs and the five spanner families,
   each intact and with a third of its edges dropped: the same answer
   on any domain count, and the same violations in the same order. *)
let test_parallel_verify_agrees () =
  let rand = Rand.create 7 in
  let graphs = [ big; udg 137 150; Gen.erdos_renyi rand 120 0.05; small ] in
  List.iter
    (fun g ->
      List.iter
        (fun h ->
          let broken = Edge_set.copy h in
          Edge_set.iter (fun u v -> if Rand.int rand 3 = 0 then Edge_set.remove broken u v) h;
          List.iter
            (fun h ->
              List.iter
                (fun (alpha, beta) ->
                  let expected = Reference.is_remote_spanner g h ~alpha ~beta in
                  List.iter
                    (fun d ->
                      check
                        (Printf.sprintf "domains=%d agrees" d)
                        expected
                        (Verify.is_remote_spanner ~domains:d g h ~alpha ~beta))
                    [ 1; 2; 3; 6 ];
                  check "violations in order" true
                    (Verify.remote_spanner_violations ~max_violations:50 g h ~alpha ~beta
                    = Reference.remote_spanner_violations ~max_violations:50 g h ~alpha ~beta))
                [ (1.0, 0.0); (1.5, 0.0); (2.0, -1.0) ])
            [ h; broken ])
        [ Remote_spanner.exact_distance g;
          Remote_spanner.low_stretch g ~eps:0.5;
          Remote_spanner.k_connecting g ~k:2;
          Baseline.bfs_tree g ~root:0;
          Baseline.full g ])
    graphs

(* ---------------------------------------------------------------- *)
(* stretch histogram *)

let test_histogram_exact_spanner () =
  let g = udg 133 60 in
  let h = Remote_spanner.exact_distance g in
  let hist = Verify.stretch_histogram g h in
  check_int "all exact" hist.Verify.pairs (hist.Verify.exact + hist.Verify.unreachable);
  check_int "no unreachable among connected" 0 hist.Verify.unreachable;
  Alcotest.(check (float 1e-9)) "ratio 1" 1.0 hist.Verify.mean_ratio;
  Alcotest.(check (list (pair int int))) "single bucket"
    [ (0, hist.Verify.pairs) ] hist.Verify.slack_counts

let test_histogram_detours_counted () =
  let g = Gen.cycle 10 in
  let h = Remote_spanner.low_stretch g ~eps:1.0 in
  let hist = Verify.stretch_histogram g h in
  check "pairs counted" true (hist.Verify.pairs > 0);
  let total = List.fold_left (fun a (_, c) -> a + c) 0 hist.Verify.slack_counts in
  check_int "buckets sum to reachable" (hist.Verify.pairs - hist.Verify.unreachable) total;
  check "mean ratio within guarantee" true (hist.Verify.mean_ratio <= 2.0)

let test_histogram_empty_h () =
  let g = Gen.path_graph 6 in
  let h = Edge_set.create g in
  let hist = Verify.stretch_histogram g h in
  (* only distance-1 neighbors are reachable via the free hop, and they
     are not counted (pairs are non-adjacent); everything else lost *)
  check_int "all unreachable" hist.Verify.pairs hist.Verify.unreachable

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "par = seq" `Quick test_parallel_equals_sequential;
          Alcotest.test_case "any domain count" `Quick test_parallel_domain_counts;
          Alcotest.test_case "empty and tiny" `Quick test_parallel_empty_and_tiny;
          Alcotest.test_case "default domains" `Quick test_default_domains_positive;
          Alcotest.test_case "parallel verify agrees" `Quick test_parallel_verify_agrees;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact spanner" `Quick test_histogram_exact_spanner;
          Alcotest.test_case "detours counted" `Quick test_histogram_detours_counted;
          Alcotest.test_case "empty H" `Quick test_histogram_empty_h;
        ] );
    ]
