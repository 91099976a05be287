(* Tests for k-connecting (2, beta)-dominating trees: Algorithms 4, 5. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let dense_er seed n p = Gen.erdos_renyi (Rand.create seed) n p

let standard_graphs =
  [
    ("petersen", Gen.petersen ());
    ("k33", Gen.complete_bipartite 3 3);
    ("hypercube4", Gen.hypercube 4);
    ("grid44", Gen.grid 4 4);
    ("udg", udg 51 60);
    ("er_dense", dense_er 53 30 0.3);
    ("theta35", Gen.theta 3 5);
  ]

(* ---------------------------------------------------------------- *)
(* disjoint_branch_count (the literal reference, on flat trees rooted at 0) *)

let branches g ~beta pairs v = Reference.disjoint_branch_count g ~beta ~root:0 pairs v

let test_branch_count_manual () =
  (* K_{2,3}: parts {0,1} and {2,3,4}. Root 0; v = 1 at distance 2.
     Tree: 0-2, 0-3 -> two disjoint depth-1 branches adjacent to 1. *)
  let g = Gen.complete_bipartite 2 3 in
  check_int "one" 1 (branches g ~beta:0 [| 0; 2 |] 1);
  check_int "two" 2 (branches g ~beta:0 [| 0; 2; 0; 3 |] 1)

let test_branch_count_depth2_same_branch () =
  (* path 0-1-2 plus edge 1-3, 2-3: tree 0-1, 1-2: both 1 and 2 are
     neighbors of 3 but share the branch through 1. *)
  let g = Graph.make ~n:4 [ (0, 1); (1, 2); (1, 3); (2, 3) ] in
  check_int "same branch counts once" 1 (branches g ~beta:1 [| 0; 1; 1; 2 |] 3)

let test_branch_count_depth_cutoff () =
  (* beta = 0 only sees depth-1 members *)
  let g = Graph.make ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let t = [| 0; 1; 1; 2 |] in
  (* v = 3: neighbor 2 is at depth 2 *)
  check_int "beta 0 blind to depth 2" 0 (branches g ~beta:0 t 3);
  check_int "beta 1 sees it" 1 (branches g ~beta:1 t 3)

(* ---------------------------------------------------------------- *)
(* Checker *)

let test_checker_k1_matches_domtree_definition () =
  (* a (2,0)-dominating tree is the k=1 case *)
  List.iter
    (fun (name, g) ->
      Graph.iter_vertices
        (fun u ->
          let t = Dom_tree_k.gdy_k g ~k:1 u in
          check (name ^ " k=1 both checkers") true
            (Reference.is_k_dominating g ~k:1 ~beta:0 ~root:u t
            && Reference.is_dominating g ~r:2 ~beta:0 ~root:u t))
        g)
    standard_graphs

let test_checker_escape_clause () =
  (* C6, root 0, v=2 with single common neighbor 1: a tree containing
     edge u-1 satisfies the "all common neighbors" clause even though
     one branch < k = 2. *)
  let g = Gen.cycle 6 in
  check "escape clause" true (Reference.is_k_dominating g ~k:2 ~beta:0 ~root:0 [| 0; 1; 0; 5 |])

let test_checker_requires_all_common_neighbors () =
  (* K_{2,3}: root 0, v=1, common neighbors {2,3,4}. With k=3 a tree
     holding only 2 of them fails. *)
  let g = Gen.complete_bipartite 2 3 in
  let k_dominating pairs = Reference.is_k_dominating g ~k:3 ~beta:0 ~root:0 pairs in
  check "2 of 3 insufficient for k=3" false (k_dominating [| 0; 2; 0; 3 |]);
  check "all 3 fine" true (k_dominating [| 0; 2; 0; 3; 0; 4 |])

(* ---------------------------------------------------------------- *)
(* Algorithm 4 *)

let test_gdy_k_valid () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          Graph.iter_vertices
            (fun u ->
              let t = Dom_tree_k.gdy_k g ~k u in
              check
                (Printf.sprintf "%s u=%d k=%d" name u k)
                true
                (Reference.is_k_dominating g ~k ~beta:0 ~root:u t))
            g)
        [ 1; 2; 3; 5 ])
    standard_graphs

let test_gdy_k_is_star () =
  let g = udg 55 50 in
  Graph.iter_vertices
    (fun u ->
      let t = Reference.of_pairs ~root:u (Dom_tree_k.gdy_k g ~k:2 u) in
      List.iter
        (fun v -> if v <> u then check_int "depth 1" 1 (Reference.depth t v))
        (Reference.vertices t))
    g

let test_gdy_k_monotone_in_k () =
  let g = dense_er 57 25 0.4 in
  Graph.iter_vertices
    (fun u ->
      let s1 = Array.length (Dom_tree_k.gdy_k g ~k:1 u) in
      let s2 = Array.length (Dom_tree_k.gdy_k g ~k:2 u) in
      let s3 = Array.length (Dom_tree_k.gdy_k g ~k:3 u) in
      check "k=1 <= k=2" true (s1 <= s2);
      check "k=2 <= k=3" true (s2 <= s3))
    g

let test_gdy_k_saturates_at_neighborhood () =
  (* huge k: every common neighbor gets selected *)
  let g = Gen.cycle 8 in
  let t = Dom_tree_k.gdy_k g ~k:50 0 in
  check_int "both neighbors" 2 (Array.length t / 2)

let test_gdy_k_ratio_vs_exact_multicover () =
  (* Proposition 6: within 1 + log Delta of the optimal k-connecting
     (2,0)-dominating tree = exact minimum k-multicover. *)
  let graphs = [ Gen.petersen (); dense_er 59 18 0.4; Gen.hypercube 3 ] in
  List.iter
    (fun g ->
      let delta = float_of_int (Graph.max_degree g) in
      Graph.iter_vertices
        (fun u ->
          let d = Bfs.dist ~radius:2 g u in
          let sphere = ref [] in
          Graph.iter_vertices (fun v -> if d.(v) = 2 then sphere := v :: !sphere) g;
          if !sphere <> [] then begin
            let sphere = Array.of_list (List.rev !sphere) in
            let idx = Hashtbl.create 8 in
            Array.iteri (fun i v -> Hashtbl.replace idx v i) sphere;
            let sets =
              Array.map
                (fun x ->
                  Array.to_list (Graph.neighbors g x)
                  |> List.filter_map (Hashtbl.find_opt idx)
                  |> Array.of_list)
                (Graph.neighbors g u)
            in
            let inst = { Rs_setcover.Setcover.universe = Array.length sphere; sets } in
            match Rs_setcover.Setcover.exact inst ~k:2 with
            | None -> ()
            | Some opt when opt <> [] ->
                let got = Array.length (Dom_tree_k.gdy_k g ~k:2 u) / 2 in
                let ratio = float_of_int got /. float_of_int (List.length opt) in
                check "prop 6 ratio" true (ratio <= 1.0 +. log delta +. 1e-9)
            | Some _ -> ()
          end)
        g)
    graphs

(* ---------------------------------------------------------------- *)
(* Algorithm 5 *)

let test_mis_k_valid () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          Graph.iter_vertices
            (fun u ->
              let t = Dom_tree_k.mis_k g ~k u in
              check
                (Printf.sprintf "%s u=%d k=%d" name u k)
                true
                (Reference.is_k_dominating g ~k ~beta:1 ~root:u t))
            g)
        [ 1; 2; 3 ])
    standard_graphs

let test_mis_k_depth_at_most_2 () =
  let g = udg 61 60 in
  Graph.iter_vertices
    (fun u ->
      let t = Reference.of_pairs ~root:u (Dom_tree_k.mis_k g ~k:2 u) in
      List.iter
        (fun v -> check "depth <= 2" true (Reference.depth t v <= 2))
        (Reference.vertices t))
    g

let test_mis_k_size_on_udg () =
  (* Proposition 7: O(k^2) edges on doubling UBG. Planar unit disks:
     MIS of a 2-ball has <= ~25 nodes; per round we add <= k+1 edges
     per MIS member. Use a generous constant. *)
  let g = udg 63 150 in
  List.iter
    (fun k ->
      Graph.iter_vertices
        (fun u ->
          let t = Dom_tree_k.mis_k g ~k u in
          check "O(k^2)" true (Array.length t / 2 <= 60 * k * (k + 1)))
        g)
    [ 1; 2; 3; 4 ]

let test_mis_k_2conn_theta () =
  (* theta(2,1): vertices 0,1 hubs; 2 internal paths of 1 node each:
     a 4-cycle. From 0: v=1 at distance 2 with 2 disjoint branches. *)
  let g = Gen.theta 2 1 in
  let t = Dom_tree_k.mis_k g ~k:2 0 in
  check_int "two branches" 2 (branches g ~beta:1 t 1)

(* ---------------------------------------------------------------- *)
(* extract_k21: constructive Proposition-4-premise audit *)

let test_extract_succeeds_on_two_connecting_output () =
  List.iter
    (fun (name, g) ->
      let h = Rs_core.Remote_spanner.two_connecting g in
      Graph.iter_vertices
        (fun u ->
          match Reference.extract_k21 g h ~k:2 u with
          | Some t ->
              check (Printf.sprintf "%s u=%d valid" name u) true
                (Reference.is_k_dominating g ~k:2 ~beta:1 ~root:u t);
              (* the certificate must use only H edges *)
              for i = 0 to (Array.length t / 2) - 1 do
                check "edge in H" true (Rs_graph.Edge_set.mem h t.(2 * i) t.((2 * i) + 1))
              done
          | None -> Alcotest.failf "%s u=%d: extraction failed" name u)
        g)
    standard_graphs

let test_extract_fails_on_empty_h () =
  let g = Gen.cycle 8 in
  let h = Rs_graph.Edge_set.create g in
  check "no tree in empty H" true (Reference.extract_k21 g h ~k:1 0 = None)

let test_extract_trivial_when_no_sphere () =
  let g = Gen.complete 5 in
  let h = Rs_graph.Edge_set.create g in
  (match Reference.extract_k21 g h ~k:2 0 with
  | Some t -> check_int "bare root suffices" 0 (Array.length t)
  | None -> Alcotest.fail "trivial tree expected")

let () =
  Alcotest.run "domtree_k"
    [
      ( "branch_count",
        [
          Alcotest.test_case "manual" `Quick test_branch_count_manual;
          Alcotest.test_case "same branch once" `Quick test_branch_count_depth2_same_branch;
          Alcotest.test_case "depth cutoff" `Quick test_branch_count_depth_cutoff;
        ] );
      ( "checker",
        [
          Alcotest.test_case "k=1 = (2,0) tree" `Quick test_checker_k1_matches_domtree_definition;
          Alcotest.test_case "escape clause" `Quick test_checker_escape_clause;
          Alcotest.test_case "needs all common" `Quick test_checker_requires_all_common_neighbors;
        ] );
      ( "gdy_k",
        [
          Alcotest.test_case "valid" `Quick test_gdy_k_valid;
          Alcotest.test_case "star shape" `Quick test_gdy_k_is_star;
          Alcotest.test_case "monotone in k" `Quick test_gdy_k_monotone_in_k;
          Alcotest.test_case "saturates" `Quick test_gdy_k_saturates_at_neighborhood;
          Alcotest.test_case "ratio vs exact (Prop 6)" `Quick test_gdy_k_ratio_vs_exact_multicover;
        ] );
      ( "mis_k",
        [
          Alcotest.test_case "valid" `Quick test_mis_k_valid;
          Alcotest.test_case "depth <= 2" `Quick test_mis_k_depth_at_most_2;
          Alcotest.test_case "O(k^2) on UDG" `Quick test_mis_k_size_on_udg;
          Alcotest.test_case "theta branches" `Quick test_mis_k_2conn_theta;
        ] );
      ( "extract_k21",
        [
          Alcotest.test_case "certifies construction output" `Quick
            test_extract_succeeds_on_two_connecting_output;
          Alcotest.test_case "fails on empty H" `Quick test_extract_fails_on_empty_h;
          Alcotest.test_case "trivial sphere" `Quick test_extract_trivial_when_no_sphere;
        ] );
    ]
