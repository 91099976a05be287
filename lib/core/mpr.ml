open Rs_graph
module Obs = Rs_obs.Obs

let c_relays = Obs.counter "mpr/relays_selected"

let two_hop g u =
  let d = Bfs.dist ~radius:2 g u in
  let acc = ref [] in
  Graph.iter_vertices (fun v -> if d.(v) = 2 then acc := v :: !acc) g;
  List.rev !acc

(* the children of a flat tree, sorted: a gdy_k star's relays *)
let children pairs =
  List.sort compare (List.init (Array.length pairs / 2) (fun i -> pairs.((2 * i) + 1)))

let select g u = children (Dom_tree_k.gdy_k g ~k:1 u)

let select_olsr g u =
  let sphere = two_hop g u in
  let alive = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace alive v ()) sphere;
  let chosen = Hashtbl.create 8 in
  let covers x =
    Array.to_list (Graph.neighbors g x) |> List.filter (Hashtbl.mem alive)
  in
  let take x =
    Hashtbl.replace chosen x ();
    List.iter (fun v -> Hashtbl.remove alive v) (covers x)
  in
  (* Step 1: neighbors that are the unique cover of some 2-hop node. *)
  List.iter
    (fun v ->
      if Hashtbl.mem alive v then begin
        let providers =
          Array.to_list (Graph.neighbors g v) |> List.filter (fun w -> Graph.mem_edge g u w)
        in
        match providers with [ x ] -> take x | _ -> ()
      end)
    sphere;
  (* Step 2: greedy on residual coverage; ties by degree desc, id asc. *)
  while Hashtbl.length alive > 0 do
    let best = ref (-1) and best_key = ref (min_int, 0) in
    Array.iter
      (fun x ->
        if not (Hashtbl.mem chosen x) then begin
          let c = List.length (covers x) in
          let key = (c, Graph.degree g x) in
          if c > 0 && (!best < 0 || key > !best_key) then begin
            best := x;
            best_key := key
          end
        end)
      (Graph.neighbors g u);
    assert (!best >= 0);
    take !best
  done;
  List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) chosen [])

let select_k_coverage g ~k u = children (Dom_tree_k.gdy_k g ~k u)

let is_valid_mpr g u relays =
  let relay = Hashtbl.create 8 in
  List.iter (fun x -> Hashtbl.replace relay x ()) relays;
  List.for_all
    (fun v -> Array.exists (Hashtbl.mem relay) (Graph.neighbors g v))
    (two_hop g u)

let relay_union g selector =
  Obs.with_span "build/mpr_relay_union" @@ fun () ->
  let h = Edge_set.create g in
  Graph.iter_vertices
    (fun u ->
      List.iter
        (fun x ->
          Obs.incr c_relays;
          Edge_set.add h u x)
        (selector g u))
    g;
  h

type flood_result = { reached : bool array; retransmissions : int }

let flood g ~relays ~src =
  let n = Graph.n g in
  let reached = Array.make n false in
  let first_sender = Array.make n (-1) in
  let is_relay = Array.make n (fun _ -> false) in
  Graph.iter_vertices
    (fun u ->
      let set = Hashtbl.create 8 in
      List.iter (fun x -> Hashtbl.replace set x ()) (relays u);
      is_relay.(u) <- Hashtbl.mem set)
    g;
  reached.(src) <- true;
  let retransmissions = ref 0 in
  (* Synchronous rounds: every node that decided to transmit this round
     delivers to its neighbors; first sender (smallest id) wins. *)
  let transmitters = ref [ src ] in
  while !transmitters <> [] do
    retransmissions := !retransmissions + List.length !transmitters;
    let delivered = Hashtbl.create 16 in
    List.iter
      (fun x ->
        Array.iter
          (fun v ->
            if not reached.(v) then
              match Hashtbl.find_opt delivered v with
              | Some sender when sender <= x -> ()
              | _ -> Hashtbl.replace delivered v x)
          (Graph.neighbors g x))
      (List.sort compare !transmitters);
    let next = ref [] in
    Hashtbl.iter
      (fun v sender ->
        reached.(v) <- true;
        first_sender.(v) <- sender)
      delivered;
    Hashtbl.iter
      (fun v sender -> if is_relay.(sender) v then next := v :: !next)
      delivered;
    transmitters := List.sort compare !next
  done;
  (* src's own transmission counts once; retransmissions = forwards *)
  { reached; retransmissions = !retransmissions - 1 }

let flood_lossy rand g ~relays ~src ~loss =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Mpr.flood_lossy: loss in [0,1)";
  let n = Graph.n g in
  let reached = Array.make n false in
  let is_relay = Array.make n (fun _ -> false) in
  Graph.iter_vertices
    (fun u ->
      let set = Hashtbl.create 8 in
      List.iter (fun x -> Hashtbl.replace set x ()) (relays u);
      is_relay.(u) <- Hashtbl.mem set)
    g;
  reached.(src) <- true;
  let retransmissions = ref 0 in
  (* will_forward: reached and entitled by some heard sender, but has
     not transmitted yet *)
  let transmitted = Array.make n false in
  let pending = ref [ src ] in
  while !pending <> [] do
    let senders = List.sort compare !pending in
    pending := [];
    retransmissions := !retransmissions + List.length senders;
    List.iter
      (fun x ->
        transmitted.(x) <- true;
        Array.iter
          (fun v ->
            if Rand.float rand 1.0 >= loss then begin
              (* v hears x's copy *)
              if not reached.(v) then reached.(v) <- true;
              if is_relay.(x) v && not transmitted.(v) && not (List.mem v !pending) then
                pending := v :: !pending
            end)
          (Graph.neighbors g x))
      senders
  done;
  { reached; retransmissions = !retransmissions - 1 }

let blind_flood g ~src =
  let n = Graph.n g in
  let reached = Array.make n false in
  let d = Bfs.dist g src in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if d.(v) >= 0 then begin
      reached.(v) <- true;
      if v <> src then incr count
    end
  done;
  (* every reached node except leaves... classic flooding: every node
     retransmits once upon first reception, the source transmits too;
     forwards = reached nodes minus the source. *)
  { reached; retransmissions = !count }
