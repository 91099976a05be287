(* Tests for remote-spanner constructions and the Proposition 1
   characterization; distributed execution included. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let graphs =
  [
    ("petersen", Gen.petersen ());
    ("grid45", Gen.grid 4 5);
    ("cycle10", Gen.cycle 10);
    ("hypercube4", Gen.hypercube 4);
    ("udg", udg 71 60);
    ("er", Gen.erdos_renyi (Rand.create 73) 35 0.15);
    ("barbell", Gen.barbell 5);
    ("two_comps", Graph.make ~n:8 [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6); (6, 7) ]);
  ]

(* ---------------------------------------------------------------- *)
(* r_of_eps *)

let test_r_of_eps () =
  check_int "eps=1" 2 (Remote_spanner.r_of_eps 1.0);
  check_int "eps=0.5" 3 (Remote_spanner.r_of_eps 0.5);
  check_int "eps=0.34" 4 (Remote_spanner.r_of_eps 0.34);
  check_int "eps=0.25" 5 (Remote_spanner.r_of_eps 0.25);
  check "rejects 0" true
    (match Remote_spanner.r_of_eps 0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "rejects > 1" true
    (match Remote_spanner.r_of_eps 1.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* (1,0)-remote-spanners: exact distance preservation *)

let test_exact_distance_is_1_0_remote_spanner () =
  List.iter
    (fun (name, g) ->
      let h = Remote_spanner.exact_distance g in
      check (name ^ " (1,0)-RS") true (Verify.is_remote_spanner g h ~alpha:1.0 ~beta:0.0))
    graphs

let test_exact_distance_sparser_than_full () =
  let g = udg 75 120 in
  let h = Remote_spanner.exact_distance g in
  check "strictly sparser" true (Edge_set.cardinal h < Graph.m g)

(* ---------------------------------------------------------------- *)
(* Low-stretch remote-spanners (Theorem 1 / Proposition 1) *)

let eps_list = [ 1.0; 0.5; 0.34 ]

let test_low_stretch_mis () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun eps ->
          let h = Remote_spanner.low_stretch g ~eps in
          check
            (Printf.sprintf "%s eps=%.2f" name eps)
            true
            (Verify.is_remote_spanner g h ~alpha:(1.0 +. eps) ~beta:(1.0 -. (2.0 *. eps))))
        eps_list)
    graphs

let test_rem_span_gdy () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun eps ->
          let r = Remote_spanner.r_of_eps eps in
          let h = Remote_spanner.rem_span g ~r ~beta:1 in
          check
            (Printf.sprintf "%s gdy eps=%.2f" name eps)
            true
            (Verify.is_remote_spanner g h ~alpha:(1.0 +. eps) ~beta:(1.0 -. (2.0 *. eps))))
        eps_list)
    graphs

let test_low_stretch_induces_trees () =
  List.iter
    (fun (name, g) ->
      let eps = 0.5 in
      let r = Remote_spanner.r_of_eps eps in
      let h = Remote_spanner.low_stretch g ~eps in
      check (name ^ " induces") true (Verify.induces_dominating_trees g h ~r ~beta:1))
    graphs

(* Proposition 1 is an iff: on random sub-graphs, inducing
   (r,1)-dominating trees and being a (1+eps, 1-2eps)-remote-spanner
   must agree (with eps = 1/(r-1), the tight value). *)
let test_prop1_equivalence_random_subgraphs () =
  let rand = Rand.create 77 in
  List.iter
    (fun (name, g) ->
      for trial = 1 to 12 do
        let h = Edge_set.create g in
        Graph.iter_edges
          (fun u v -> if Rand.int rand 100 < 70 then Edge_set.add h u v)
          g;
        List.iter
          (fun r ->
            let eps = 1.0 /. float_of_int (r - 1) in
            let induces = Verify.induces_dominating_trees g h ~r ~beta:1 in
            let spanner =
              Verify.is_remote_spanner g h ~alpha:(1.0 +. eps)
                ~beta:(1.0 -. (2.0 *. eps))
            in
            check
              (Printf.sprintf "%s trial=%d r=%d iff" name trial r)
              true (induces = spanner))
          [ 2; 3 ]
      done)
    [ ("petersen", Gen.petersen ()); ("grid", Gen.grid 4 4); ("cycle10", Gen.cycle 10) ]

(* ---------------------------------------------------------------- *)
(* Edge counts on doubling inputs (Theorem 1's O(n) claim, sanity level) *)

let test_low_stretch_linear_on_udg () =
  let g = udg 79 300 in
  let h = Remote_spanner.low_stretch g ~eps:0.5 in
  let per_node = float_of_int (Edge_set.cardinal h) /. 300.0 in
  (* eps = 0.5, p = 2: O(eps^-(p+1)) = O(8) trees of O(r^3) edges;
     empirically the density is far below 60 edges per node *)
  check "linear density" true (per_node < 60.0)

let test_worst_additive_slack () =
  let g = Gen.cycle 12 in
  let h = Remote_spanner.exact_distance g in
  let slack = Verify.worst_additive_slack g h ~alpha:1.0 in
  check "no slack for (1,0)" true (slack <= 0.0);
  (* removing a needed edge creates positive slack *)
  let h2 = Edge_set.copy h in
  Edge_set.iter (fun u v -> if Edge_set.cardinal h2 > 1 then Edge_set.remove h2 u v) h2;
  let slack2 = Verify.worst_additive_slack g h2 ~alpha:1.0 in
  check "slack grows" true (slack2 > 0.0)

(* ---------------------------------------------------------------- *)
(* Distributed Algorithm 3 *)

let test_distributed_equals_centralized_gdy () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (r, beta) ->
          let report = Remote_spanner.Distributed.rem_span g ~r ~beta in
          let centralized = Remote_spanner.rem_span g ~r ~beta in
          check
            (Printf.sprintf "%s r=%d beta=%d" name r beta)
            true
            (Edge_set.equal report.Remote_spanner.Distributed.spanner centralized))
        [ (2, 0); (2, 1); (3, 1) ])
    graphs

let test_distributed_equals_centralized_kconn () =
  List.iter
    (fun (name, g) ->
      let report = Remote_spanner.Distributed.k_connecting g ~k:2 in
      let centralized = Remote_spanner.k_connecting g ~k:2 in
      check (name ^ " k-conn") true
        (Edge_set.equal report.Remote_spanner.Distributed.spanner centralized))
    graphs

let test_distributed_equals_centralized_2conn () =
  List.iter
    (fun (name, g) ->
      let report = Remote_spanner.Distributed.two_connecting g in
      let centralized = Remote_spanner.two_connecting g in
      check (name ^ " 2-conn") true
        (Edge_set.equal report.Remote_spanner.Distributed.spanner centralized))
    graphs

(* No edges, no trees: on the empty graph and on an edgeless one every
   distributed entry returns what its centralized counterpart does. *)
let test_distributed_degenerate_graphs () =
  List.iter
    (fun (name, g) ->
      let same what (report : Remote_spanner.Distributed.report) centralized =
        check (name ^ " " ^ what) true
          (Edge_set.equal report.Remote_spanner.Distributed.spanner centralized)
      in
      same "rem_span" (Remote_spanner.Distributed.rem_span g ~r:3 ~beta:1)
        (Remote_spanner.rem_span g ~r:3 ~beta:1);
      same "k_connecting" (Remote_spanner.Distributed.k_connecting g ~k:2)
        (Remote_spanner.k_connecting g ~k:2);
      same "two_connecting" (Remote_spanner.Distributed.two_connecting g)
        (Remote_spanner.two_connecting g))
    [ ("empty", Gen.empty 0); ("edgeless", Gen.empty 5) ]

let test_distributed_round_count () =
  (* 2r - 1 + 2*beta rounds, independent of n *)
  List.iter
    (fun n ->
      let g = Gen.cycle n in
      let report = Remote_spanner.Distributed.rem_span g ~r:3 ~beta:1 in
      check_int
        (Printf.sprintf "rounds n=%d" n)
        ((2 * 3) - 1 + (2 * 1))
        report.Remote_spanner.Distributed.rounds_total)
    [ 12; 24; 48 ]

let test_distributed_round_counts_per_construction () =
  let g = Gen.grid 4 5 in
  check_int "k-conn rounds (r=2,b=0)" 3
    (Remote_spanner.Distributed.k_connecting g ~k:2).Remote_spanner.Distributed.rounds_total;
  check_int "2-conn rounds (r=2,b=1)" 5
    (Remote_spanner.Distributed.two_connecting g).Remote_spanner.Distributed.rounds_total;
  check_int "low-stretch rounds (r=2,b=1)" 5
    (Remote_spanner.Distributed.rem_span g ~r:2 ~beta:1).Remote_spanner.Distributed.rounds_total

let test_distributed_messages_grow_with_n () =
  let stats n =
    let g = Gen.cycle n in
    (Remote_spanner.Distributed.rem_span g ~r:2 ~beta:0).Remote_spanner.Distributed.collect_stats
  in
  let s1 = stats 10 and s2 = stats 40 in
  check "messages scale" true (s2.Rs_distributed.Sim.messages > s1.Rs_distributed.Sim.messages)

let () =
  Alcotest.run "remote_spanner"
    [
      ("params", [ Alcotest.test_case "r_of_eps" `Quick test_r_of_eps ]);
      ( "exact",
        [
          Alcotest.test_case "(1,0)-RS everywhere" `Quick test_exact_distance_is_1_0_remote_spanner;
          Alcotest.test_case "sparser than full" `Quick test_exact_distance_sparser_than_full;
        ] );
      ( "low_stretch",
        [
          Alcotest.test_case "MIS construction (Th 1)" `Quick test_low_stretch_mis;
          Alcotest.test_case "greedy construction" `Quick test_rem_span_gdy;
          Alcotest.test_case "induces dominating trees" `Quick test_low_stretch_induces_trees;
          Alcotest.test_case "Prop 1 equivalence" `Quick test_prop1_equivalence_random_subgraphs;
          Alcotest.test_case "linear on UDG" `Quick test_low_stretch_linear_on_udg;
          Alcotest.test_case "additive slack" `Quick test_worst_additive_slack;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "gdy = centralized" `Quick test_distributed_equals_centralized_gdy;
          Alcotest.test_case "k-conn = centralized" `Quick test_distributed_equals_centralized_kconn;
          Alcotest.test_case "2-conn = centralized" `Quick test_distributed_equals_centralized_2conn;
          Alcotest.test_case "empty and edgeless graphs" `Quick test_distributed_degenerate_graphs;
          Alcotest.test_case "round count 2r-1+2b" `Quick test_distributed_round_count;
          Alcotest.test_case "rounds per construction" `Quick test_distributed_round_counts_per_construction;
          Alcotest.test_case "messages scale with n" `Quick test_distributed_messages_grow_with_n;
        ] );
    ]
