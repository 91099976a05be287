open Rs_graph

let bowtie () = Graph.of_canonical ~n:5 [| (0, 1); (0, 2); (1, 2); (2, 3); (2, 4); (3, 4) |]

let edge_repair g ~k ~base =
  if k < 1 then invalid_arg "Extensions.edge_repair: k < 1";
  let h = Edge_set.copy base in
  let added = ref 0 in
  (* H's CSR for the flow engine, rebuilt only after a repair adds an
     edge *)
  let hg = ref (Edge_set.to_graph h) and stale = ref false in
  let add_path p =
    let rec loop = function
      | a :: (b :: _ as rest) ->
          if not (Edge_set.mem h a b) then begin
            Edge_set.add h a b;
            incr added;
            stale := true
          end;
          loop rest
      | [ _ ] | [] -> ()
    in
    loop p
  in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && not (Graph.mem_edge g s t) then begin
        let profile_g = Edge_disjoint.dk_profile g ~kmax:k s t in
        let kmax_g = Array.length profile_g in
        if kmax_g > 0 then begin
          if !stale then begin
            hg := Edge_set.to_graph h;
            stale := false
          end;
          let profile_h = Disjoint_paths.augmented_profile Edge g !hg ~kmax:kmax_g s t in
          (* repair each violated k' by inlining G's optimal system *)
          for k' = 1 to kmax_g do
            let violated =
              Array.length profile_h < k' || profile_h.(k' - 1) > profile_g.(k' - 1)
            in
            if violated then
              match Edge_disjoint.min_sum_paths g ~k:k' s t with
              | Some paths -> List.iter add_path paths
              | None -> ()
          done
        end
      end
    done
  done;
  (h, !added)

let edge_two_connecting g =
  fst (edge_repair g ~k:2 ~base:(Remote_spanner.two_connecting g))

let hybrid g ~eps ~k =
  let h = Remote_spanner.low_stretch g ~eps in
  Edge_set.union_into h (Remote_spanner.k_connecting_mis g ~k);
  h
